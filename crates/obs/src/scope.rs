//! Deterministic replay labelling.
//!
//! Snapshots from a parallel run are only useful if each replay has a
//! stable identity: the thread pool may execute replays in any order, so
//! names must come from the *structure* of the computation, not from
//! execution order. This module maintains a thread-local stack of scope
//! labels (experiment id, fan-out sequence, item index, …); a replay's
//! id is the joined path plus a per-scope sequence number, which is a
//! pure function of program structure and therefore identical under
//! `--seq` and `--jobs N`.
//!
//! Thread hand-off: a parallel map opens a fan-out scope ([`scoped_fanout`],
//! numbered in program order so two fan-outs in one scope cannot collide),
//! captures the caller's stack with [`fork`], installs it in each worker
//! with [`adopt`], and wraps each item in an index scope — so nested
//! fan-outs compose into paths like `fig9/f0001/i0004/r0000`. The same
//! hand-off carries the caller's [`Sink`], so a worker's replays record
//! where the caller's would.

use std::cell::RefCell;
use std::sync::Arc;

use crate::sink::{self, Sink};

struct Frame {
    label: String,
    /// Sequence number handed to the next replay opened in this scope.
    next_replay: u64,
    /// Sequence number handed to the next fan-out opened in this scope.
    next_fanout: u64,
}

impl Frame {
    fn new(label: String) -> Self {
        Frame {
            label,
            next_replay: 0,
            next_fanout: 0,
        }
    }
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    /// (next replay, next fan-out) for the root (empty) scope.
    static ROOT: RefCell<(u64, u64)> = const { RefCell::new((0, 0)) };
}

/// Pops its scope frame on drop.
#[must_use = "the scope ends when this guard drops"]
#[derive(Debug)]
pub struct ScopeGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        STACK.with(|stack| {
            stack.borrow_mut().pop().expect("scope stack underflow");
        });
    }
}

/// Pushes a scope label onto this thread's stack; popped when the guard
/// drops. Labels nest: `scoped("fig9")` inside `scoped("suite")` yields
/// paths under `suite/fig9/`.
pub fn scoped(label: &str) -> ScopeGuard {
    STACK.with(|stack| {
        stack.borrow_mut().push(Frame::new(label.to_string()));
    });
    ScopeGuard {
        _not_send: std::marker::PhantomData,
    }
}

/// Pushes a zero-padded fan-out item index scope (`i0042`), so paths
/// sort the same lexicographically and numerically.
pub fn scoped_index(index: usize) -> ScopeGuard {
    scoped(&format!("i{index:04}"))
}

/// Pushes a fan-out scope (`f0001`), numbered by a per-parent-scope
/// counter in program order — so two parallel maps opened in the same
/// scope get distinct subtrees and their item paths cannot collide.
pub fn scoped_fanout() -> ScopeGuard {
    let seq = STACK.with(|stack| match stack.borrow_mut().last_mut() {
        Some(frame) => {
            let s = frame.next_fanout;
            frame.next_fanout += 1;
            s
        }
        None => ROOT.with(|root| {
            let mut root = root.borrow_mut();
            let s = root.1;
            root.1 += 1;
            s
        }),
    });
    scoped(&format!("f{seq:04}"))
}

/// A captured scope path and sink, ready to carry to another thread.
#[derive(Debug, Clone)]
pub struct ScopeStack {
    labels: Vec<String>,
    sink: Option<Arc<Sink>>,
}

/// Captures the current thread's scope path and sink (labels only — the
/// receiving side starts fresh sequence counters, which is correct
/// because item scopes are pushed around each unit of forked work).
pub fn fork() -> ScopeStack {
    ScopeStack {
        labels: labels(),
        sink: sink::installed(),
    }
}

/// Restores the previously installed stack and sink on drop.
#[must_use = "the adopted scope ends when this guard drops"]
#[derive(Debug)]
pub struct AdoptGuard {
    saved: ScopeStack,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        set_labels(std::mem::take(&mut self.saved.labels));
        sink::swap(self.saved.sink.take());
    }
}

/// Replaces this thread's scope stack and sink with forked ones (e.g.
/// inside a worker thread); the previous ones are restored when the
/// guard drops.
pub fn adopt(stack: &ScopeStack) -> AdoptGuard {
    let saved = ScopeStack {
        labels: labels(),
        sink: sink::swap(stack.sink.clone()),
    };
    set_labels(stack.labels.clone());
    AdoptGuard {
        saved,
        _not_send: std::marker::PhantomData,
    }
}

fn labels() -> Vec<String> {
    STACK.with(|stack| stack.borrow().iter().map(|f| f.label.clone()).collect())
}

fn set_labels(labels: Vec<String>) {
    STACK.with(|stack| {
        *stack.borrow_mut() = labels.into_iter().map(Frame::new).collect();
    });
}

/// Allocates the next replay id under the current scope: the joined path
/// plus a per-scope sequence number, e.g. `fig9/f0000/i0003/r0000`.
/// Sequential replays in one scope get `r0000`, `r0001`, … in program
/// order.
pub fn next_replay_path() -> String {
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let seq = match stack.last_mut() {
            Some(frame) => {
                let s = frame.next_replay;
                frame.next_replay += 1;
                s
            }
            None => ROOT.with(|root| {
                let mut root = root.borrow_mut();
                let s = root.0;
                root.0 += 1;
                s
            }),
        };
        let mut path = String::new();
        for frame in stack.iter() {
            path.push_str(&frame.label);
            path.push('/');
        }
        path.push_str(&format!("r{seq:04}"));
        path
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_nest_and_sequence() {
        let _a = scoped("fig9");
        {
            let _b = scoped_index(3);
            assert_eq!(next_replay_path(), "fig9/i0003/r0000");
            assert_eq!(next_replay_path(), "fig9/i0003/r0001");
        }
        // A sibling scope restarts its own sequence.
        let _c = scoped_index(4);
        assert_eq!(next_replay_path(), "fig9/i0004/r0000");
    }

    #[test]
    fn sibling_fanouts_get_distinct_subtrees() {
        let _a = scoped("fig9");
        {
            let _f = scoped_fanout();
            let _i = scoped_index(0);
            assert_eq!(next_replay_path(), "fig9/f0000/i0000/r0000");
        }
        {
            // Same item index, second fan-out: no collision.
            let _f = scoped_fanout();
            let _i = scoped_index(0);
            assert_eq!(next_replay_path(), "fig9/f0001/i0000/r0000");
        }
        // Direct replays in the parent scope use an independent counter.
        assert_eq!(next_replay_path(), "fig9/r0000");
    }

    #[test]
    fn root_scope_still_names_replays_and_fanouts() {
        // Other tests in this binary run on separate threads, so the
        // thread-local root counters start at zero here regardless.
        let first = next_replay_path();
        let second = next_replay_path();
        assert!(first.starts_with('r') && second.starts_with('r'));
        assert_ne!(first, second);
        let f1 = {
            let _f = scoped_fanout();
            next_replay_path()
        };
        let f2 = {
            let _f = scoped_fanout();
            next_replay_path()
        };
        assert_ne!(f1, f2);
    }

    #[test]
    fn fork_and_adopt_move_the_path_across_threads() {
        let _a = scoped("suite");
        let _b = scoped("fig3");
        let forked = fork();
        let path = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _adopted = adopt(&forked);
                    let _item = scoped_index(7);
                    next_replay_path()
                })
                .join()
                .expect("worker")
        });
        assert_eq!(path, "suite/fig3/i0007/r0000");
        // This thread's own scope is untouched.
        assert_eq!(next_replay_path(), "suite/fig3/r0000");
    }

    #[test]
    fn adopt_restores_previous_stack() {
        let _a = scoped("outer");
        let empty = ScopeStack {
            labels: Vec::new(),
            sink: None,
        };
        {
            let _adopted = adopt(&empty);
            assert_eq!(next_replay_path(), "r0000");
        }
        assert_eq!(next_replay_path(), "outer/r0000");
    }
}
