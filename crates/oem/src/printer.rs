//! Rendering OEM stores in the paper's figure style.
//!
//! Top-level objects print leftmost; each subobject prints indented under
//! its (first) parent. Shared objects are defined once — later parents show
//! only the oid reference inside their `{...}` — exactly matching how
//! Figures 2.2/2.3/2.4 present object structures.

use crate::store::{FxSet, ObjId, ObjectStore};
use crate::value::Value;
use std::fmt::{self, Write};

/// Render every top-level structure of the store.
pub fn print_store(store: &ObjectStore) -> String {
    print_store_limit(store, usize::MAX)
}

/// Render at most `max` top-level structures — the serving layer's row
/// cap. The output is byte-identical to a prefix of [`print_store`]: the
/// shared printed-set walks the same objects in the same order, so a
/// capped answer is literally a prefix of the full one.
pub fn print_store_limit(store: &ObjectStore, max: usize) -> String {
    let mut out = String::new();
    let _ = write_store_limit(store, max, &mut out);
    out
}

/// The length of [`print_store`]'s text, counted as it is written
/// instead of kept.
pub fn printed_len(store: &ObjectStore) -> usize {
    struct Tally(usize);
    impl Write for Tally {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    let mut tally = Tally(0);
    let _ = write_store_limit(store, usize::MAX, &mut tally);
    tally.0
}

fn write_store_limit<W: Write>(store: &ObjectStore, max: usize, out: &mut W) -> fmt::Result {
    let mut printed = FxSet::default();
    for &t in store.top_level().iter().take(max) {
        print_rec(store, t, 0, &mut printed, out)?;
    }
    Ok(())
}

/// Render one structure rooted at `id`.
pub fn print_object(store: &ObjectStore, id: ObjId) -> String {
    let mut out = String::new();
    let _ = print_rec(store, id, 0, &mut FxSet::default(), &mut out);
    out
}

/// One-line header of an object: `<&p1, person, set, {&n1,&d1}>` or
/// `<&n1, name, string, 'Joe Chung'>`.
pub fn object_line(store: &ObjectStore, id: ObjId) -> String {
    let mut out = String::new();
    let _ = write_object_line(store, id, &mut out);
    out
}

/// Write [`object_line`]'s text to `out`.
fn write_object_line<W: Write>(store: &ObjectStore, id: ObjId, out: &mut W) -> fmt::Result {
    let obj = store.get(id);
    out.write_str("<&")?;
    store.oid_display(id).write_to(out)?;
    out.write_str(", ")?;
    obj.label.with_str(|l| out.write_str(l))?;
    out.write_str(", ")?;
    match &obj.value {
        Value::Set(children) => {
            out.write_str("set, {")?;
            for (i, &c) in children.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                out.write_char('&')?;
                store.oid_display(c).write_to(out)?;
            }
            out.write_str("}>")
        }
        atomic => {
            out.write_str(atomic.oem_type().keyword())?;
            out.write_str(", ")?;
            atomic.write_atomic(out)?;
            out.write_char('>')
        }
    }
}

fn print_rec<W: Write>(
    store: &ObjectStore,
    id: ObjId,
    indent: usize,
    printed: &mut FxSet<ObjId>,
    out: &mut W,
) -> fmt::Result {
    for _ in 0..indent {
        out.write_str("  ")?;
    }
    write_object_line(store, id, out)?;
    out.write_char('\n')?;
    if !printed.insert(id) {
        return Ok(());
    }
    for &c in store.children(id) {
        if printed.contains(&c) {
            continue; // already defined elsewhere; the oid ref suffices
        }
        print_rec(store, c, indent + 1, printed, out)?;
    }
    Ok(())
}

/// Compact single-line rendering with inline subobjects, useful in logs:
/// `<person {<name 'Joe Chung'> <dept 'CS'>}>`. Cycle-safe (back-references
/// render as `&oid`).
pub fn compact(store: &ObjectStore, id: ObjId) -> String {
    let mut out = String::new();
    let mut on_path = FxSet::default();
    compact_rec(store, id, &mut on_path, &mut out);
    out
}

fn compact_rec(store: &ObjectStore, id: ObjId, on_path: &mut FxSet<ObjId>, out: &mut String) {
    let obj = store.get(id);
    if !on_path.insert(id) {
        let _ = write!(out, "&{}", store.oid_display(id));
        return;
    }
    match &obj.value {
        Value::Set(children) => {
            let _ = write!(out, "<{} {{", obj.label);
            for (i, &c) in children.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                compact_rec(store, c, on_path, out);
            }
            let _ = write!(out, "}}>");
        }
        atomic => {
            let _ = write!(out, "<{} ", obj.label);
            let _ = atomic.write_atomic(out);
            out.push('>');
        }
    }
    on_path.remove(&id);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ObjectBuilder;
    use crate::parser::parse_store;

    #[test]
    fn roundtrip_print_parse() {
        let mut s = ObjectStore::new();
        ObjectBuilder::set("person")
            .oid("&p1")
            .child(ObjectBuilder::atom_obj("name", "Joe Chung").oid("&n1"))
            .child(ObjectBuilder::atom_obj("year", 3i64).oid("&y1"))
            .build_top(&mut s);
        let text = print_store(&s);
        let reparsed = parse_store(&text).unwrap();
        assert_eq!(reparsed.len(), s.len());
        assert_eq!(reparsed.top_level().len(), 1);
        let p = reparsed.top_level()[0];
        assert!(crate::eq::struct_eq_cross(
            &s,
            s.top_level()[0],
            &reparsed,
            p
        ));
    }

    #[test]
    fn figure_style_output() {
        let mut s = ObjectStore::new();
        ObjectBuilder::set("person")
            .oid("&p1")
            .child(ObjectBuilder::atom_obj("name", "Joe Chung").oid("&n1"))
            .child(ObjectBuilder::atom_obj("dept", "CS").oid("&d1"))
            .build_top(&mut s);
        let text = print_store(&s);
        assert_eq!(
            text,
            "<&p1, person, set, {&n1,&d1}>\n  <&n1, name, string, 'Joe Chung'>\n  <&d1, dept, string, 'CS'>\n"
        );
    }

    #[test]
    fn print_store_is_pinned_beyond_ms1() {
        let mut s = ObjectStore::new();
        let shared = s.atom("office", "Gates 4A");
        let mut kids = vec![
            s.atom("note", "O'Neil \\ co\nline two"),
            s.atom("r", 3.0),
            s.atom("r", -0.0),
            s.atom("r", 2.5),
            s.atom("i", i64::MIN),
            s.atom("b", true),
            s.atom("b", false),
        ];
        kids.push(shared);
        let p1 = s
            .insert(crate::sym("p1"), crate::sym("person"), Value::Set(kids))
            .unwrap();
        let n = s.atom("n", 10i64);
        let team = s.set("team", vec![n, shared]);
        s.add_top(p1);
        s.add_top(team);
        assert_eq!(
            print_store(&s),
            "<&p1, person, set, {&x2,&x3,&x4,&x5,&x6,&x7,&x8,&x1}>\n\
             \x20 <&x2, note, string, 'O\\'Neil \\\\ co\nline two'>\n\
             \x20 <&x3, r, real, 3.0>\n\
             \x20 <&x4, r, real, -0.0>\n\
             \x20 <&x5, r, real, 2.5>\n\
             \x20 <&x6, i, integer, -9223372036854775808>\n\
             \x20 <&x7, b, boolean, true>\n\
             \x20 <&x8, b, boolean, false>\n\
             \x20 <&x1, office, string, 'Gates 4A'>\n\
             <&x10, team, set, {&x9,&x1}>\n\
             \x20 <&x9, n, integer, 10>\n"
        );
    }

    #[test]
    fn shared_objects_defined_once() {
        let mut s = ObjectStore::new();
        let shared = s.atom("addr", "Gates");
        let p1 = s.set("person", vec![shared]);
        let p2 = s.set("person", vec![shared]);
        s.add_top(p1);
        s.add_top(p2);
        let text = print_store(&s);
        // The address body must appear exactly once.
        assert_eq!(text.matches("'Gates'").count(), 1);
        // But its oid is referenced by both parents.
        let oid = s.oid(shared).as_str();
        assert_eq!(text.matches(&format!("{{&{oid}}}")).count(), 2);
    }

    #[test]
    fn compact_form() {
        let mut s = ObjectStore::new();
        let p = ObjectBuilder::set("person")
            .atom("name", "Joe")
            .atom("year", 3i64)
            .build(&mut s);
        assert_eq!(compact(&s, p), "<person {<name 'Joe'> <year 3>}>");
    }

    #[test]
    fn compact_handles_cycles() {
        let mut s = ObjectStore::new();
        let a = s
            .insert(crate::sym("a"), crate::sym("node"), Value::Set(vec![]))
            .unwrap();
        s.add_child(a, a).unwrap();
        // The self-referencing child renders as an oid back-reference.
        assert_eq!(compact(&s, a), "<node {&a}>");
    }

    #[test]
    fn cyclic_print_terminates() {
        let mut s = ObjectStore::new();
        let a = s
            .insert(crate::sym("&a"), crate::sym("node"), Value::Set(vec![]))
            .unwrap();
        let b = s
            .insert(crate::sym("&b"), crate::sym("node"), Value::Set(vec![a]))
            .unwrap();
        s.add_child(a, b).unwrap();
        s.add_top(a);
        let text = print_store(&s);
        assert!(text.contains("&a") && text.contains("&b"));
    }
}
