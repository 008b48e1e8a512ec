//! Helpers shared by the integration tests that compare answers
//! structurally (`mod common;` in each).

use oem::ObjectStore;

/// Sort-insensitive structural comparison of two result stores.
pub fn same_objects(a: &ObjectStore, b: &ObjectStore) -> bool {
    if a.top_level().len() != b.top_level().len() {
        return false;
    }
    let mut unmatched: Vec<oem::ObjId> = b.top_level().to_vec();
    for &x in a.top_level() {
        let Some(pos) = unmatched
            .iter()
            .position(|&y| oem::eq::struct_eq_cross(a, x, b, y))
        else {
            return false;
        };
        unmatched.swap_remove(pos);
    }
    true
}
