//! A generated oid is a number, not an interned name: building a store of
//! generated objects adds nothing to the process-wide interner, which never
//! frees what it holds.
//!
//! Lives in its own test binary: the check counts symbols interned between
//! two markers, which any test interning on another thread would disturb.

use oem::{ObjectStore, Symbol, Value};

#[test]
fn generating_oids_interns_nothing() {
    let mut store = ObjectStore::new();
    let label = Symbol::intern("n");
    let before = Symbol::intern("interner-growth-marker-before");
    for i in 0..10_000 {
        store.insert_auto(label, Value::Int(i));
    }
    let after = Symbol::intern("interner-growth-marker-after");
    assert_eq!(store.len(), 10_000);
    assert_eq!(after.index() - before.index(), 1);
}
