//! Differential test of the native WalkDown kernel against its
//! independent oracle, [`color_pointers_reference`], on grids that span
//! several tiles.
//!
//! Every list here has `n = 3·TILE·x + x/2` nodes, so its `y = ⌈n/x⌉`
//! columns fill three tiles, leave a one-column partial last tile, and
//! end in a short (padded) last column. The kernel must color every
//! pointer exactly as the oracle does, for `x` equal to the set bound and
//! seven rows above it, both coin variants, four layouts and pools of 1,
//! 2 and 8 workers; and Match4's matching must be the greedy sweep over
//! the oracle's three color classes.

use parmatch_core::finish::greedy_by_sets;
use parmatch_core::partition::NO_POINTER;
use parmatch_core::prelude::*;
use parmatch_core::walkdown::{color_pointers, color_pointers_reference, Grid, TILE};
use parmatch_core::{pointer_sets, PointerSets};
use parmatch_list::{blocked_list, random_list, reversed_list, sequential_list, LinkedList};

const THREADS: [usize; 3] = [1, 2, 8];

/// A named list generator and the relabel rounds (`levels`) to run on it.
type Layout<'a> = (&'a str, u32, &'a dyn Fn(usize) -> LinkedList);

fn on_pool<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(op)
}

/// A list of `n = 3·TILE·x + x/2` nodes with `x = bound + extra`, where
/// `bound` is the set bound after `levels` relabel rounds. The bound
/// depends on `n` alone, so this iterates `x ↦ bound(n(x)) + extra` to
/// its fixed point.
fn sized(
    make: &dyn Fn(usize) -> LinkedList,
    levels: u32,
    variant: CoinVariant,
    extra: usize,
) -> (LinkedList, PointerSets, usize) {
    let mut x = 16;
    for _ in 0..8 {
        let list = make(3 * TILE * x + x / 2);
        let ps = pointer_sets(&list, levels, variant);
        let want = ps.bound() as usize + extra;
        if want == x {
            return (list, ps, x);
        }
        x = want;
    }
    panic!("row count did not settle");
}

#[test]
fn kernel_matches_reference_on_multi_tile_grids() {
    let layouts: [Layout; 5] = [
        ("random", 1, &|n| random_list(n, 41)),
        ("random", 2, &|n| random_list(n, 42)),
        ("blocked", 2, &|n| blocked_list(n, 64, 43)),
        ("sequential", 2, &sequential_list),
        ("reversed", 2, &reversed_list),
    ];
    for (name, levels, make) in layouts {
        for variant in [CoinVariant::Msb, CoinVariant::Lsb] {
            for extra in [0, 7] {
                let case = format!("{name} i={levels} {variant:?} x=bound+{extra}");
                let (list, ps, x) = sized(make, levels, variant, extra);
                let n = list.len();
                let cols = n.div_ceil(x);
                assert!(cols > 3 * TILE && cols % TILE != 0, "{case}: {cols} cols");
                assert_ne!(n % x, 0, "{case}: last column is full");

                let reference = color_pointers_reference(&list, &ps, x);
                assert!(verify::coloring_is_proper(&list, &reference, 3), "{case}");
                let classes: Vec<u8> = reference
                    .iter()
                    .map(|&c| if c < 3 { c } else { NO_POINTER })
                    .collect();
                let greedy = greedy_by_sets(&list, &PointerSets::from_raw(classes, 3, 1), None);

                for threads in THREADS {
                    let (colors, rounds) = on_pool(threads, || {
                        let grid = Grid::new(&list, &ps, x);
                        assert_eq!(grid.cols(), cols);
                        color_pointers(&list, &grid)
                    });
                    assert_eq!(rounds, 3 * x - 1, "{case} threads={threads}");
                    assert!(
                        colors == reference,
                        "{case} threads={threads}: colors differ"
                    );
                    if extra == 0 {
                        let out = on_pool(threads, || {
                            Runner::new(Algorithm::Match4)
                                .levels(levels)
                                .variant(variant)
                                .run(&list)
                        });
                        let out = out.as_match4().expect("match4 outcome");
                        assert_eq!(out.rows, x, "{case}");
                        assert!(
                            out.matching == greedy,
                            "{case} threads={threads}: matching differs"
                        );
                    }
                }
            }
        }
    }
}
