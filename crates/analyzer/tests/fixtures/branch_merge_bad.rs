//! Pinned regression for the branch-merge unsoundness of a linear guard
//! scan: the guard is dropped in only one `match` arm, so on the other arm
//! it is still held when the send happens. A linear scan sees the `drop`
//! and clears the guard unconditionally; the CFG engine merges the arms
//! with a may-analysis and keeps the guard live.

use std::sync::mpsc::Sender;
use std::sync::Mutex;

pub fn publish(state: &Mutex<u64>, tx: &Sender<u64>, fast_path: bool) {
    let guard = state.lock().unwrap();
    match fast_path {
        true => drop(guard),
        false => {}
    }
    tx.send(1).ok();
}
