//! Triggering fixture for `no-silent-send-drop`.

use std::sync::mpsc::Sender;

pub fn reply(tx: &Sender<u64>, value: u64) {
    let _ = tx.send(value);
}

// The same discard without `let`, and through `.ok()` as a statement:
// both compile warning-free.
pub struct Link {
    tx: Sender<u64>,
}

impl Link {
    pub fn forward(&self, msg: u64) {
        _ = self.tx.send(msg);
    }

    pub fn shutdown(&self) {
        self.tx.send(0).ok();
    }
}
