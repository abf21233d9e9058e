//! Analysis-scoped memo of the polyhedral domain's LP answers.
//!
//! The fixpoint asks the same small LP many times over: `entails_all` re-checks a
//! post against an unchanged target invariant, the hull join's snap loop re-asks
//! `minimize`'s LP with a different constant, and `reduce`/`widen` repeat entailments
//! the join already decided. [`CacheScope::install`] puts a [`QueryCache`] in a
//! thread-local slot for the length of one [`InvariantAnalysis::analyze`] call, and
//! every f64 LP the domain poses goes through [`answer`], which solves only on a miss.
//!
//! The memo is exact. A key is the *whole* constraint list (interned to an id) plus the
//! objective with its constant zeroed, compared by structural equality, so a hash
//! collision can only cost a probe, never hand back another query's answer. The LP
//! built from a list and an objective never sees the objective's constant, so
//! `entails(d + k)` reuses `minimize(d)`, and the solver is deterministic, so a hit
//! returns bit for bit what a fresh solve would. Outside a scope (transition pruning in
//! `dca_core`, [`InvariantMap::entails`]) queries are solved directly.
//!
//! [`InvariantAnalysis::analyze`]: crate::InvariantAnalysis::analyze
//! [`InvariantMap::entails`]: crate::InvariantMap::entails

use std::cell::RefCell;
use std::collections::HashMap;

use dca_lp::LpStatus;
use dca_numeric::Rational;
use dca_poly::LinExpr;

/// What one f64 LP query answers: the status and, when optimal, the objective value.
pub(crate) type LpAnswer = (LpStatus, Option<f64>);

/// How many LP queries an invariant analysis asked, and how many of them it solved
/// (the rest were answered from the analysis's query cache).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Feasibility, entailment and minimization LPs the analysis asked for.
    pub queries: u64,
    /// Of those, the ones that missed the cache and ran the simplex.
    pub solves: u64,
}

/// The memo: interned constraint lists and the answers keyed by `(list, objective)`.
#[derive(Default)]
struct QueryCache {
    lists: HashMap<Vec<LinExpr>, u32>,
    answers: HashMap<(u32, LinExpr), LpAnswer>,
    stats: QueryStats,
}

impl QueryCache {
    fn answer(
        &mut self,
        constraints: &[LinExpr],
        objective: &LinExpr,
        solve: impl FnOnce() -> LpAnswer,
    ) -> LpAnswer {
        self.stats.queries += 1;
        let list = match self.lists.get(constraints) {
            Some(&id) => id,
            None => {
                let id = self.lists.len() as u32;
                self.lists.insert(constraints.to_vec(), id);
                id
            }
        };
        let mut direction = objective.clone();
        direction.set_constant(Rational::zero());
        *self.answers.entry((list, direction)).or_insert_with(|| {
            self.stats.solves += 1;
            solve()
        })
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<QueryCache>> = const { RefCell::new(None) };
}

/// Answers "minimize `objective` subject to `constraints`" from the active cache, or by
/// running `solve` (on a miss, or when no cache is installed on this thread).
pub(crate) fn answer(
    constraints: &[LinExpr],
    objective: &LinExpr,
    solve: impl FnOnce() -> LpAnswer,
) -> LpAnswer {
    ACTIVE.with(|slot| match slot.borrow_mut().as_mut() {
        Some(cache) => cache.answer(constraints, objective, solve),
        None => solve(),
    })
}

/// RAII guard over the thread's cache slot. Dropping it — on return or while a panic
/// unwinds — discards its cache and restores whatever the slot held before.
pub(crate) struct CacheScope {
    outer: Option<QueryCache>,
}

impl CacheScope {
    /// Installs a fresh, empty cache for the guard's lifetime.
    pub(crate) fn install() -> CacheScope {
        CacheScope::replace(Some(QueryCache::default()))
    }

    /// Removes any cache for the guard's lifetime, so every query is solved.
    #[cfg(test)]
    pub(crate) fn suspend() -> CacheScope {
        CacheScope::replace(None)
    }

    fn replace(cache: Option<QueryCache>) -> CacheScope {
        CacheScope {
            outer: ACTIVE.with(|slot| slot.replace(cache)),
        }
    }

    /// The counters of the installed cache: this guard's, unless a nested scope is
    /// still alive.
    pub(crate) fn stats(&self) -> QueryStats {
        ACTIVE.with(|slot| {
            slot.borrow()
                .as_ref()
                .map(|cache| cache.stats)
                .unwrap_or_default()
        })
    }
}

impl Drop for CacheScope {
    fn drop(&mut self) {
        let outer = self.outer.take();
        ACTIVE.with(|slot| *slot.borrow_mut() = outer);
    }
}

/// Returns `true` if a cache is installed on this thread.
#[cfg(test)]
pub(crate) fn installed() -> bool {
    ACTIVE.with(|slot| slot.borrow().is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca_poly::VarId;

    fn x_at_least(k: i64) -> LinExpr {
        LinExpr::var(VarId(0)) - LinExpr::from_int(k)
    }

    fn fixed(status: LpStatus, value: f64) -> impl FnOnce() -> LpAnswer {
        move || (status, Some(value))
    }

    #[test]
    fn answers_are_keyed_by_list_and_objective_without_its_constant() {
        let scope = CacheScope::install();
        let list = [x_at_least(1)];
        let first = answer(&list, &x_at_least(3), fixed(LpStatus::Optimal, 1.0));
        // Same list, same direction, another constant: a hit with the first answer.
        let again = answer(&list, &x_at_least(7), || unreachable!("must be a hit"));
        assert_eq!(first, again);
        // Another list or another direction is a miss.
        answer(
            &[x_at_least(2)],
            &x_at_least(3),
            fixed(LpStatus::Optimal, 2.0),
        );
        answer(&list, &-x_at_least(3), fixed(LpStatus::Unbounded, 0.0));
        assert_eq!(
            scope.stats(),
            QueryStats {
                queries: 4,
                solves: 3
            }
        );
    }

    #[test]
    fn no_cache_outlives_its_scope_even_when_a_panic_unwinds_out_of_it() {
        assert!(!installed());
        {
            let _scope = CacheScope::install();
            assert!(installed());
        }
        assert!(!installed());
        // Panic from inside a solve, while the cache is borrowed, the way a panic in
        // the simplex would leave an analysis.
        let unwound = std::panic::catch_unwind(|| {
            let _scope = CacheScope::install();
            answer(&[x_at_least(0)], &x_at_least(0), || {
                panic!("injected solver panic")
            })
        });
        assert!(unwound.is_err());
        assert!(!installed());
        // The slot is usable again afterwards.
        let scope = CacheScope::install();
        answer(
            &[x_at_least(0)],
            &x_at_least(0),
            fixed(LpStatus::Optimal, 0.0),
        );
        assert_eq!(
            scope.stats(),
            QueryStats {
                queries: 1,
                solves: 1
            }
        );
    }

    #[test]
    fn a_nested_scope_restores_the_outer_cache() {
        let list = [x_at_least(1)];
        let outer = CacheScope::install();
        answer(&list, &x_at_least(0), fixed(LpStatus::Optimal, 1.0));
        {
            let inner = CacheScope::install();
            assert_eq!(inner.stats(), QueryStats::default());
            answer(&list, &x_at_least(0), fixed(LpStatus::Optimal, 1.0));
            assert_eq!(
                inner.stats(),
                QueryStats {
                    queries: 1,
                    solves: 1
                }
            );
            {
                let _uncached = CacheScope::suspend();
                assert!(!installed());
            }
            assert_eq!(
                inner.stats(),
                QueryStats {
                    queries: 1,
                    solves: 1
                }
            );
        }
        // Back in the outer scope, its entry is still there.
        answer(&list, &x_at_least(0), || {
            unreachable!("the outer cache must answer")
        });
        assert_eq!(
            outer.stats(),
            QueryStats {
                queries: 2,
                solves: 1
            }
        );
        drop(outer);
        assert!(!installed());
    }
}
