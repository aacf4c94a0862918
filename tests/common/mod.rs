//! Helpers shared by the failpoint-armed suites.

use msaw_parallel::failpoint;
use std::panic::PanicHookInfo;
use std::sync::{Arc, Mutex};

/// The prefix of every panic `msaw_parallel::failpoint` raises.
const FAILPOINT_PANIC: &str = "failpoint `";

/// The message a panic was raised with, when it is a string.
fn panic_message<'a>(info: &'a PanicHookInfo<'_>) -> &'a str {
    let payload = info.payload();
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("")
}

/// Serialize failpoint-armed tests, and while `f` runs hide the panics
/// injected failpoints raise (they are caught by the pool or the
/// supervisor, but the default hook would still spam stderr). Every
/// other panic — a failed assertion above all — still reaches the
/// previous hook, so a failing test prints its reason.
pub fn with_faults<R>(f: impl FnOnce() -> R) -> R {
    static FAULT_LOCK: Mutex<()> = Mutex::new(());
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    failpoint::disarm_all();
    let prev = Arc::new(std::panic::take_hook());
    let forward = Arc::clone(&prev);
    std::panic::set_hook(Box::new(move |info| {
        if !panic_message(info).starts_with(FAILPOINT_PANIC) {
            forward(info);
        }
    }));
    let out = f();
    // Dropping the quiet hook releases its handle on the previous one.
    drop(std::panic::take_hook());
    let prev = Arc::into_inner(prev).expect("the quiet hook held the only other handle");
    std::panic::set_hook(prev);
    failpoint::disarm_all();
    out
}
