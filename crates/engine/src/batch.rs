//! Batch-at-a-time condition evaluation for the datamerge executor.
//!
//! The hot loop of datamerge execution is "does some member of this object
//! set satisfy `<label const>`?" — rest-condition filters (§3.3) evaluate
//! it once per binding row. Per-row evaluation walks the recursive
//! [`crate::matcher::match_pattern`] dispatch for every member; this module
//! instead *compiles* the common var-free condition shape into a
//! [`FlatCond`] and evaluates one condition across a whole batch of rows
//! over a columnar lane view with a selection vector.
//!
//! Two evaluation paths exist (one generic, one accelerated, selected once
//! at startup — the akh-medu `simd/{generic,avx2}` idiom):
//!
//! * a **generic scalar kernel** comparing packed 64-bit lane keys one at a
//!   time, and
//! * a **wide kernel** comparing unrolled blocks of 8 lanes (upgraded to
//!   AVX2 `_mm256_cmpeq_epi64` when the CPU supports it).
//!
//! Lane keys pack every fixed-width atomic value ([`oem::Value::Str`] via
//! the interner index, `Bool`, in-range `Int`, and *integral* reals
//! normalized to the integer key so numeric promotion — 3 matches 3.0 —
//! survives packing) into a tagged `u64`. Values outside the packable set
//! fall back to the general [`crate::matcher::atomic_eq`] comparison.

use crate::matcher::atomic_eq;
use msl::{PatValue, Pattern, Term};
use oem::{ObjId, ObjectStore, Symbol, Value};
use std::sync::OnceLock;

/// Lane-key tag bits (top two bits of the packed `u64`).
const TAG_STR: u64 = 0 << 62;
const TAG_BOOL: u64 = 1 << 62;
const TAG_INT: u64 = 2 << 62;
/// Offset-binary bias for integer lane keys; ints in `[-2^61, 2^61)` pack.
const INT_BIAS: i64 = 1 << 61;

/// Pack an atomic value into a tagged 64-bit lane key.
///
/// Returns `None` for values with no fixed-width key (sets, out-of-range
/// ints, non-integral reals). Two packable values compare equal under
/// [`atomic_eq`] **iff** their keys are equal: integral reals in range are
/// normalized onto the integer key, so `3` and `3.0` collide by design.
pub fn lane_key(v: &Value) -> Option<u64> {
    match v {
        Value::Str(s) => Some(TAG_STR | s.index() as u64),
        Value::Bool(b) => Some(TAG_BOOL | *b as u64),
        Value::Int(i) if (-INT_BIAS..INT_BIAS).contains(i) => {
            Some(TAG_INT | (*i + INT_BIAS) as u64)
        }
        Value::Int(_) => None,
        Value::RealBits(bits) => {
            let x = f64::from_bits(*bits);
            if x.is_finite() && x.fract() == 0.0 && x >= -(INT_BIAS as f64) && x < INT_BIAS as f64 {
                Some(TAG_INT | ((x as i64) + INT_BIAS) as u64)
            } else {
                None
            }
        }
        Value::Set(_) => None,
    }
}

/// A compiled var-free condition `<label const>`: the flat shape rest
/// conditions overwhelmingly take after the view expander pushes query
/// constants into them (§3.3).
#[derive(Clone, Debug)]
pub struct FlatCond {
    label: Symbol,
    value: Value,
    /// Packed key of `value`; `None` forces the generic comparison.
    key: Option<u64>,
}

impl FlatCond {
    /// Compile `pat` if it has the flat shape: constant label, constant
    /// atomic value, and no object variable, oid, or type field. Patterns
    /// with variables (which would *bind* rather than test) or nested set
    /// patterns return `None` and keep the recursive matcher.
    pub fn compile(pat: &Pattern) -> Option<FlatCond> {
        if pat.obj_var.is_some() || pat.oid.is_some() || pat.typ.is_some() {
            return None;
        }
        let Term::Const(label) = &pat.label else {
            return None;
        };
        let label = label.as_str_sym()?;
        let PatValue::Term(Term::Const(value)) = &pat.value else {
            return None;
        };
        if !value.is_atomic() {
            return None;
        }
        let key = lane_key(value);
        Some(FlatCond {
            label,
            value: value.clone(),
            key,
        })
    }

    /// Does the single object `id` satisfy the condition?
    pub fn matches(&self, store: &ObjectStore, id: ObjId) -> bool {
        let obj = store.get(id);
        if obj.label != self.label {
            return false;
        }
        match self.key {
            Some(k) => lane_key(&obj.value) == Some(k),
            None => atomic_eq(&self.value, &obj.value),
        }
    }

    /// Evaluate the condition across a batch: for each row's object set,
    /// does **some** member satisfy it? Returns a selection vector (one
    /// bool per row).
    ///
    /// Two passes over a columnar view: the label pass gathers candidate
    /// members as `(lane key, row)` lanes, the value pass runs the selected
    /// comparison kernel over the packed lanes and folds hits back into the
    /// per-row selection vector. Members whose value has no lane key cannot
    /// equal a packable needle and are skipped; an unpackable needle
    /// downgrades the whole batch to the generic comparison.
    pub fn filter_batch(&self, store: &ObjectStore, sets: &[&[ObjId]]) -> Vec<bool> {
        let mut sel = vec![false; sets.len()];
        match self.key {
            Some(needle) => {
                // Label pass: gather packable candidate lanes.
                let mut lanes: Vec<u64> = Vec::new();
                let mut row_of: Vec<u32> = Vec::new();
                for (row, ids) in sets.iter().enumerate() {
                    for &id in *ids {
                        let obj = store.get(id);
                        if obj.label != self.label {
                            continue;
                        }
                        if let Some(k) = lane_key(&obj.value) {
                            lanes.push(k);
                            row_of.push(row as u32);
                        }
                    }
                }
                // Value pass: one kernel sweep, then fold into rows.
                let mut hits: Vec<u32> = Vec::new();
                (kernel())(&lanes, needle, &mut hits);
                for &lane in &hits {
                    sel[row_of[lane as usize] as usize] = true;
                }
            }
            None => {
                for (row, ids) in sets.iter().enumerate() {
                    sel[row] = ids.iter().any(|&id| self.matches(store, id));
                }
            }
        }
        sel
    }
}

/// An equality-scan kernel: append the indices of lanes equal to `needle`
/// onto `hits`.
pub type EqKernel = fn(&[u64], u64, &mut Vec<u32>);

/// Generic scalar kernel: one lane at a time. Always available; the
/// baseline the accelerated path is differential-tested against.
pub fn eq_hits_generic(lanes: &[u64], needle: u64, hits: &mut Vec<u32>) {
    for (i, &l) in lanes.iter().enumerate() {
        if l == needle {
            hits.push(i as u32);
        }
    }
}

/// Wide kernel: unrolled blocks of 8 lanes with a cheap any-hit prefilter
/// per block, falling into per-lane extraction only on a hit.
pub fn eq_hits_wide(lanes: &[u64], needle: u64, hits: &mut Vec<u32>) {
    let mut chunks = lanes.chunks_exact(8);
    let mut base: u32 = 0;
    for c in chunks.by_ref() {
        // Branch-free accumulation: OR of the eight comparisons.
        let any = (c[0] == needle)
            | (c[1] == needle)
            | (c[2] == needle)
            | (c[3] == needle)
            | (c[4] == needle)
            | (c[5] == needle)
            | (c[6] == needle)
            | (c[7] == needle);
        if any {
            for (j, &l) in c.iter().enumerate() {
                if l == needle {
                    hits.push(base + j as u32);
                }
            }
        }
        base += 8;
    }
    for (j, &l) in chunks.remainder().iter().enumerate() {
        if l == needle {
            hits.push(base + j as u32);
        }
    }
}

/// AVX2 kernel: four 64-bit compares per instruction via
/// `_mm256_cmpeq_epi64`, movemask prefilter per 8-lane block.
#[cfg(target_arch = "x86_64")]
fn eq_hits_avx2(lanes: &[u64], needle: u64, hits: &mut Vec<u32>) {
    #[target_feature(enable = "avx2")]
    unsafe fn scan(lanes: &[u64], needle: u64, hits: &mut Vec<u32>) {
        use std::arch::x86_64::*;
        let n = _mm256_set1_epi64x(needle as i64);
        let mut chunks = lanes.chunks_exact(8);
        let mut base: u32 = 0;
        for c in chunks.by_ref() {
            let a = _mm256_loadu_si256(c.as_ptr() as *const __m256i);
            let b = _mm256_loadu_si256(c.as_ptr().add(4) as *const __m256i);
            let ma = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(a, n)));
            let mb = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(b, n)));
            let mask = (ma | (mb << 4)) as u32;
            if mask != 0 {
                for j in 0..8u32 {
                    if mask & (1 << j) != 0 {
                        hits.push(base + j);
                    }
                }
            }
            base += 8;
        }
        for (j, &l) in chunks.remainder().iter().enumerate() {
            if l == needle {
                hits.push(base + j as u32);
            }
        }
    }
    // Safety: only installed by `kernel()` after runtime AVX2 detection.
    unsafe { scan(lanes, needle, hits) }
}

/// The comparison kernel in use, selected once at startup: AVX2 when the
/// CPU supports it, the unrolled wide kernel otherwise.
pub fn kernel() -> EqKernel {
    static KERNEL: OnceLock<EqKernel> = OnceLock::new();
    *KERNEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return eq_hits_avx2 as EqKernel;
            }
        }
        eq_hits_wide as EqKernel
    })
}

/// Human-readable name of the selected kernel, for diagnostics.
pub fn kernel_name() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "wide"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bindings::Bindings;
    use crate::matcher::match_pattern;
    use oem::parser::parse_store;

    fn cond(src: &str) -> Pattern {
        // Parse `X :- <p {COND}>@s` and pull the inner subpattern out.
        let q = msl::parse_query(&format!("X :- <p {{{src}}}>@s")).unwrap();
        let msl::TailItem::Match { pattern, .. } = q.tail.into_iter().next().unwrap() else {
            panic!("expected match item");
        };
        let PatValue::Set(sp) = pattern.value else {
            panic!("expected set pattern");
        };
        match sp.elements.into_iter().next().unwrap() {
            msl::SetElem::Pattern(p) => p,
            _ => panic!("expected subpattern"),
        }
    }

    #[test]
    fn compile_accepts_flat_and_rejects_binding_shapes() {
        assert!(FlatCond::compile(&cond("<year 3>")).is_some());
        assert!(FlatCond::compile(&cond("<name 'Joe Chung'>")).is_some());
        assert!(FlatCond::compile(&cond("<year Y>")).is_none(), "var value");
        assert!(FlatCond::compile(&cond("<L 3>")).is_none(), "var label");
        assert!(FlatCond::compile(&cond("X:<year 3>")).is_none(), "obj var");
        assert!(FlatCond::compile(&cond("<o year t 3>")).is_none(), "oid");
        assert!(
            FlatCond::compile(&cond("<addr {<city 'SF'>}>")).is_none(),
            "nested set"
        );
    }

    #[test]
    fn lane_keys_agree_with_atomic_eq() {
        let vals = [
            Value::str("a"),
            Value::str("b"),
            Value::Int(0),
            Value::Int(3),
            Value::Int(-3),
            Value::real(3.0),
            Value::real(-3.0),
            Value::real(2.5),
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(i64::MAX),
            Value::real(f64::INFINITY),
            Value::real(1e300),
        ];
        for a in &vals {
            for b in &vals {
                if let (Some(ka), Some(kb)) = (lane_key(a), lane_key(b)) {
                    assert_eq!(ka == kb, atomic_eq(a, b), "{a:?} vs {b:?}");
                }
            }
        }
        // 3 and 3.0 share a key (numeric promotion survives packing).
        assert_eq!(lane_key(&Value::Int(3)), lane_key(&Value::real(3.0)));
        // Unpackable values that could never equal a packable needle.
        assert_eq!(lane_key(&Value::Int(i64::MAX)), None);
        assert_eq!(lane_key(&Value::real(2.5)), None);
        assert_eq!(lane_key(&Value::empty_set()), None);
    }

    #[test]
    fn kernels_agree_on_all_alignments() {
        // Lengths straddling the 8-lane block boundary exercise remainders.
        for len in 0..40usize {
            let lanes: Vec<u64> = (0..len as u64).map(|i| i % 5).collect();
            let mut generic = Vec::new();
            eq_hits_generic(&lanes, 3, &mut generic);
            let mut wide = Vec::new();
            eq_hits_wide(&lanes, 3, &mut wide);
            assert_eq!(generic, wide, "len {len}");
            let mut selected = Vec::new();
            (kernel())(&lanes, 3, &mut selected);
            assert_eq!(generic, selected, "len {len} ({})", kernel_name());
        }
    }

    #[test]
    fn filter_batch_matches_per_row_matcher() {
        let store = parse_store(
            "<&p1, person, set, {<&y1, year, 3> <&n1, name, 'A'>}>
             <&p2, person, set, {<&y2, year, 4>}>
             <&p3, person, set, {<&y3, year, 3.0>}>
             <&p4, person, set, {<&n4, name, 'B'>}>",
        )
        .unwrap();
        let c = cond("<year 3>");
        let flat = FlatCond::compile(&c).unwrap();
        let sets: Vec<&[ObjId]> = store
            .top_level()
            .iter()
            .map(|&t| store.get(t).value.as_set().unwrap())
            .collect();
        let sel = flat.filter_batch(&store, &sets);
        let expect: Vec<bool> = sets
            .iter()
            .map(|ids| {
                ids.iter()
                    .any(|&id| !match_pattern(&store, id, &c, &Bindings::new()).is_empty())
            })
            .collect();
        assert_eq!(sel, expect);
        // year 3.0 matched the int needle: promotion preserved.
        assert_eq!(sel, vec![true, false, true, false]);
    }

    #[test]
    fn unpackable_needle_uses_generic_path() {
        let store = parse_store("<&p, reading, set, {<&v, val, 2.5>}>").unwrap();
        let flat = FlatCond::compile(&cond("<val 2.5>")).unwrap();
        assert!(flat.key.is_none());
        let sets: Vec<&[ObjId]> = vec![store.get(store.top_level()[0]).value.as_set().unwrap()];
        assert_eq!(flat.filter_batch(&store, &sets), vec![true]);
    }

    #[test]
    fn set_valued_members_never_match() {
        let store = parse_store("<&p, person, set, {<&a, year, set, {<&b, x, 3>}>}>").unwrap();
        let flat = FlatCond::compile(&cond("<year 3>")).unwrap();
        let id = store.get(store.top_level()[0]).value.as_set().unwrap()[0];
        assert!(!flat.matches(&store, id));
        assert_eq!(
            flat.filter_batch(
                &store,
                &[store.get(store.top_level()[0]).value.as_set().unwrap()]
            ),
            vec![false]
        );
    }
}
