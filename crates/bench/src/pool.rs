//! A deterministic, budgeted thread pool for the replay matrix.
//!
//! The harness originally targeted `rayon`, but this workspace vendors
//! every dependency, so the primitives the runner needs are implemented
//! directly on `std::thread`:
//!
//! * [`par_map`] — apply a function to every element of a slice on worker
//!   threads, returning results **in input order** regardless of which
//!   thread computed them (this is what keeps parallel experiment output
//!   byte-identical to sequential output);
//! * a **global concurrency budget** shared by nested `par_map` calls
//!   (experiments fan out over workloads *inside* an experiment fan-out),
//!   so `--jobs N` bounds total worker threads rather than multiplying at
//!   each nesting level.
//!
//! ## Scheduling
//!
//! Participants (the caller plus any spawned workers) claim element
//! indices from one shared atomic counter. Two properties keep a
//! straggling element from stranding the threads its siblings finish
//! with:
//!
//! 1. **Incremental budget release** — a spawned worker returns its
//!    budget slot the moment no index is left to claim (not when the
//!    whole fan-out joins), so a straggler's *nested* `par_map` can
//!    reserve the threads its finished siblings just gave back.
//! 2. **Recruitment** — between elements, a running fan-out that still
//!    has unclaimed indices polls the budget and spawns one more worker
//!    when a slot is free, so freed capacity flows to whichever fan-out
//!    still has work.
//!
//! An exhausted budget therefore does not make a fan-out sequential: the
//! caller runs the claim loop alone and recruits as slots free up. Only
//! `--jobs 1` and single-element fan-outs take the plain sequential loop.
//!
//! Determinism is schedule-independent: execution order is free, but
//! results are merged back into submission order and every element runs
//! inside the same observability scopes (`scoped_fanout` numbered on the
//! caller in program order, `scoped_index(i)` per element, workers adopt
//! the caller's forked scope path). Replay ids are pure functions of call
//! site and element index, so `--seq` and `--jobs N` output — including
//! the cnt-obs metrics stream — stays byte-identical.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::Scope;

/// Extra worker threads available globally, beyond every `par_map`'s
/// caller thread. `jobs - 1` for a `--jobs N` run.
static BUDGET: AtomicUsize = AtomicUsize::new(0);
/// Whether [`set_jobs`] has been called; before that, [`jobs`] reports
/// the detected parallelism without reserving it.
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

/// Sets the global concurrency level: at most `jobs` threads (including
/// callers) ever run simultaneously across all nested [`par_map`] calls.
///
/// `jobs = 1` makes every subsequent [`par_map`] strictly sequential.
pub fn set_jobs(jobs: usize) {
    let jobs = jobs.max(1);
    BUDGET.store(jobs - 1, Ordering::SeqCst);
    CONFIGURED.store(jobs, Ordering::SeqCst);
}

/// The configured concurrency level, or the machine's available
/// parallelism when [`set_jobs`] has not been called.
pub fn jobs() -> usize {
    match CONFIGURED.load(Ordering::SeqCst) {
        0 => default_jobs(),
        n => n,
    }
}

/// The machine's available parallelism (1 if it cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Extra worker slots currently unreserved. Exact only while no
/// `par_map` is in flight; the stress tests use it to prove the budget
/// is restored after panics and nested exhaustion.
#[must_use]
pub fn available_budget() -> usize {
    BUDGET.load(Ordering::SeqCst)
}

/// Takes one extra-worker slot from the global budget, or `None` when
/// the budget is exhausted. Never blocks, so nested calls cannot
/// deadlock.
fn reserve() -> Option<BudgetSlot> {
    if CONFIGURED.load(Ordering::SeqCst) == 0 {
        // Not configured: take the lazy default once.
        set_jobs(default_jobs());
    }
    BUDGET
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |free| {
            free.checked_sub(1)
        })
        .ok()
        .map(|_| BudgetSlot)
}

/// One reserved budget slot, returned on drop, so a worker's reservation
/// survives neither its exit nor an unwind.
struct BudgetSlot;

impl Drop for BudgetSlot {
    fn drop(&mut self) {
        BUDGET.fetch_add(1, Ordering::SeqCst);
    }
}

/// Applies `f` to every element of `items` using up to the globally
/// configured number of threads, returning the results in input order.
///
/// `f` runs exactly once per element (a panic in `f` aborts the fan-out:
/// elements not yet started may be skipped, and the first panic payload
/// propagates to the caller after all workers have stopped).
///
/// The whole call opens an observability fan-out scope (numbered per
/// parent scope in program order) and every element runs inside an index
/// scope; worker threads adopt the caller's scope path first. Replay ids
/// minted inside `f` are therefore pure functions of call site and
/// element index — identical whether the element ran on the caller, a
/// worker, a mid-flight recruit, or the sequential path.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    // Fan-out scope first: it is numbered in program order on the caller
    // thread, so it must exist before any path decisions are made.
    let _fanout = cnt_obs::scoped_fanout();
    if jobs() == 1 || n == 1 {
        // `--jobs 1` is contractually sequential, and a single-element
        // fan-out has nothing to distribute.
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let _scope = cnt_obs::scoped_index(i);
                f(item)
            })
            .collect();
    }
    let ctx = Ctx {
        items,
        f: &f,
        next: AtomicUsize::new(0),
        results: Mutex::new(Vec::with_capacity(n)),
        panic: Mutex::new(None),
        abort: AtomicBool::new(false),
        forked: cnt_obs::fork(),
    };
    // The caller claims first, so element 0 always runs on the calling
    // thread, and workers only ever join by recruitment. The caller holds
    // no budget slot (the budget counts threads *beyond* callers). An
    // exhausted budget does not make the fan-out sequential: the caller
    // keeps recruiting as siblings release their slots.
    std::thread::scope(|scope| participant(scope, &ctx, None));

    if let Some(payload) = ctx.panic.into_inner().unwrap_or_else(|p| p.into_inner()) {
        std::panic::resume_unwind(payload);
    }
    let pairs = ctx.results.into_inner().unwrap_or_else(|p| p.into_inner());
    merge(n, pairs)
}

/// Shared state of one fan-out. Lives on the calling thread's stack,
/// borrowed by every participant.
struct Ctx<'a, T, R, F> {
    items: &'a [T],
    f: &'a F,
    /// The next unclaimed index; values `>= items.len()` mean drained.
    next: AtomicUsize,
    /// Completed `(index, result)` pairs, in completion order; merged
    /// back into submission order after the scope joins.
    results: Mutex<Vec<(usize, R)>>,
    /// First panic payload out of `f`, if any.
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
    /// Set on the first panic; participants stop claiming work.
    abort: AtomicBool,
    /// The caller's scope path for workers to adopt.
    forked: cnt_obs::ScopeStack,
}

impl<T, R, F> Ctx<'_, T, R, F> {
    /// Whether any index is still unclaimed (and the fan-out is live).
    fn has_unclaimed(&self) -> bool {
        !self.abort.load(Ordering::SeqCst) && self.next.load(Ordering::SeqCst) < self.items.len()
    }

    /// Claims the next index, or `None` once the counter is drained (or
    /// the fan-out aborted).
    fn claim(&self) -> Option<usize> {
        if self.abort.load(Ordering::SeqCst) {
            return None;
        }
        let index = self.next.fetch_add(1, Ordering::SeqCst);
        (index < self.items.len()).then_some(index)
    }
}

/// One scheduling participant: claims indices until the counter is
/// drained, recruiting one more worker after each claim while indices
/// remain and the global budget has a free slot (freed e.g. by a sibling
/// fan-out that finished early). Recruits adopt the fan-out's scope
/// path, so replay ids stay index-determined on any thread.
///
/// `budget` is the slot this participant holds, returned to the pool the
/// moment it runs out of work — which is what lets a straggler's nested
/// fan-out pick the slot up.
fn participant<'scope, T, R, F>(
    scope: &'scope Scope<'scope, '_>,
    ctx: &'scope Ctx<'scope, T, R, F>,
    budget: Option<BudgetSlot>,
) where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    while let Some(index) = ctx.claim() {
        if let Some(slot) = ctx.has_unclaimed().then(reserve).flatten() {
            scope.spawn(move || {
                let _adopted = cnt_obs::adopt(&ctx.forked);
                participant(scope, ctx, Some(slot));
            });
        }
        let _scope = cnt_obs::scoped_index(index);
        match catch_unwind(AssertUnwindSafe(|| (ctx.f)(&ctx.items[index]))) {
            Ok(result) => {
                let mut results = ctx.results.lock().unwrap_or_else(|p| p.into_inner());
                results.push((index, result));
            }
            Err(payload) => {
                ctx.abort.store(true, Ordering::SeqCst);
                let mut slot = ctx.panic.lock().unwrap_or_else(|p| p.into_inner());
                slot.get_or_insert(payload);
            }
        }
    }
    // Explicit for emphasis: the slot goes back *now*, while siblings may
    // still be running, not when the fan-out joins.
    drop(budget);
}

/// Restores submission order: scatters completion-ordered pairs into
/// their index slots.
fn merge<R>(n: usize, pairs: Vec<(usize, R)>) -> Vec<R> {
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for (i, value) in pairs {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index visited"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        set_jobs(4);
        let items: Vec<u64> = (0..100).collect();
        let doubled = par_map(&items, |&x| x * 2);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn runs_each_element_once() {
        set_jobs(4);
        let seen = Mutex::new(vec![0u32; 64]);
        let items: Vec<usize> = (0..64).collect();
        par_map(&items, |&i| {
            seen.lock().unwrap()[i] += 1;
        });
        assert!(seen.lock().unwrap().iter().all(|&c| c == 1));
    }

    #[test]
    fn nested_calls_complete() {
        set_jobs(3);
        let outer: Vec<usize> = (0..8).collect();
        let sums = par_map(&outer, |&o| {
            let inner: Vec<usize> = (0..16).collect();
            par_map(&inner, |&i| o * 100 + i).iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..8).map(|o| (0..16).map(|i| o * 100 + i).sum()).collect();
        assert_eq!(sums, expect);
    }

    #[test]
    fn sequential_when_one_job() {
        set_jobs(1);
        let items: Vec<u64> = (0..32).collect();
        let out = par_map(&items, |&x| x + 1);
        assert_eq!(out, (1..33).collect::<Vec<_>>());
        set_jobs(default_jobs());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u64> = par_map(&[] as &[u64], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_elements_all_complete() {
        set_jobs(4);
        let items: Vec<u64> = (0..64).collect();
        // One element much slower than the rest: the other participants
        // must claim everything else past it.
        let out = par_map(&items, |&x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x + 1
        });
        assert_eq!(out, (1..65).collect::<Vec<_>>());
    }
}
