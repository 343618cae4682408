//! Non-triggering fixture for `no-silent-send-drop`: the failed send is
//! counted instead of discarded, or its result is handed on.

use std::sync::mpsc::Sender;

pub fn reply(tx: &Sender<u64>, value: u64, dropped: &mut u64) {
    if tx.send(value).is_err() {
        *dropped += 1;
    }
}

pub fn reply_all(txs: &[Sender<u64>], value: u64) -> u64 {
    let mut n = 0;
    for tx in txs {
        if tx.send(value).is_err() {
            n += 1;
        }
    }
    n
}

pub fn delivered(tx: &Sender<u64>, value: u64) -> bool {
    let sent = tx.send(value).ok();
    sent.is_some()
}
