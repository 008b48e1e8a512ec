//! Regression: `Value::compare_atomic` on two distinct strings reads the
//! interner twice. When the second read was taken while the first was still
//! held, a `Symbol::intern` writer queued between the two wedged all three
//! threads (the lock blocks new readers behind a waiting writer). Parallel
//! chains and concurrent `medmaker serve` requests both reach that shape.
//!
//! Lives in its own test binary: a wedged interner would hang every other
//! test sharing the process.

use oem::{Symbol, Value};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

const ROUNDS: usize = 200_000;

#[test]
fn comparing_strings_while_interning_does_not_deadlock() {
    let barrier = Arc::new(Barrier::new(3));
    let (done, finished) = mpsc::channel::<&'static str>();
    let spawn = |name: &'static str, work: Box<dyn FnOnce() + Send>| {
        let (barrier, done) = (Arc::clone(&barrier), done.clone());
        std::thread::spawn(move || {
            barrier.wait();
            work();
            let _ = done.send(name);
        });
    };
    for (name, a, b) in [
        ("compare-1", "alpha", "beta"),
        ("compare-2", "gamma", "delta"),
    ] {
        let (a, b) = (Value::str(a), Value::str(b));
        spawn(
            name,
            Box::new(move || {
                for _ in 0..ROUNDS {
                    assert!(a.compare_atomic(&b).is_some());
                }
            }),
        );
    }
    spawn(
        "intern",
        Box::new(|| {
            for i in 0..ROUNDS {
                Symbol::intern(&format!("fresh-symbol-{i}"));
            }
        }),
    );
    drop(done);

    let deadline = Instant::now() + Duration::from_secs(20);
    let mut names = Vec::new();
    while names.len() < 3 {
        let left = deadline.saturating_duration_since(Instant::now());
        match finished.recv_timeout(left) {
            Ok(name) => names.push(name),
            Err(_) => panic!(
                "{} of 3 threads finished within 20 s (finished: {names:?}): \
                 the interner deadlocked or a worker panicked",
                names.len()
            ),
        }
    }
}
