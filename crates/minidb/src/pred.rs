//! Conjunctive selection predicates.

use crate::types::Datum;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;

/// A comparison operator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// Equal (`=`).
    Eq,
    /// Not equal (`<>`).
    Neq,
    /// Less than (`<`).
    Lt,
    /// Less than or equal (`<=`).
    Le,
    /// Greater than (`>`).
    Gt,
    /// Greater than or equal (`>=`).
    Ge,
}

impl CmpOp {
    /// Evaluate against a three-valued comparison result. Incomparable
    /// datums (`None`) fail every operator — including `Neq`, matching SQL's
    /// treatment of NULL.
    pub fn eval(&self, ord: Option<Ordering>) -> bool {
        match (self, ord) {
            (CmpOp::Eq, Some(Ordering::Equal)) => true,
            (CmpOp::Neq, Some(o)) => o != Ordering::Equal,
            (CmpOp::Lt, Some(Ordering::Less)) => true,
            (CmpOp::Le, Some(Ordering::Less | Ordering::Equal)) => true,
            (CmpOp::Gt, Some(Ordering::Greater)) => true,
            (CmpOp::Ge, Some(Ordering::Greater | Ordering::Equal)) => true,
            _ => false,
        }
    }

    /// Parse from the MSL built-in predicate names.
    pub fn from_name(name: &str) -> Option<CmpOp> {
        Some(match name {
            "eq" => CmpOp::Eq,
            "neq" => CmpOp::Neq,
            "lt" => CmpOp::Lt,
            "le" => CmpOp::Le,
            "gt" => CmpOp::Gt,
            "ge" => CmpOp::Ge,
            _ => return None,
        })
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Neq => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// One condition `column θ value`.
#[derive(Clone, PartialEq, Debug)]
pub struct Condition {
    /// Column the condition tests.
    pub column: String,
    /// The comparison operator θ.
    pub op: CmpOp,
    /// The constant compared against.
    pub value: Datum,
}

impl Condition {
    /// Equality shorthand.
    pub fn eq(column: &str, value: impl Into<Datum>) -> Condition {
        Condition {
            column: column.to_string(),
            op: CmpOp::Eq,
            value: value.into(),
        }
    }

    /// General shorthand.
    pub fn cmp(column: &str, op: CmpOp, value: impl Into<Datum>) -> Condition {
        Condition {
            column: column.to_string(),
            op,
            value: value.into(),
        }
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.column, self.op, self.value)
    }
}

/// A membership condition `column IN (v1, v2, ...)`. An empty value list
/// matches nothing, like SQL's `IN ()` would.
#[derive(Clone, PartialEq, Debug)]
pub struct InCondition {
    /// Column the condition tests.
    pub column: String,
    values: Vec<Datum>,
    /// Positions in `values` by [`set_key`], built once so that testing a
    /// row is a lookup and not a pass over the list.
    by_key: HashMap<Datum, Vec<usize>>,
}

/// A hashable stand-in for a datum under [`Datum::compare`]'s equality:
/// numbers by their `f64` view (so 3 finds 3.0), `-0.0` as `0.0`; NULL,
/// which equals nothing, has none. Distinct integers beyond 2^53 can share
/// a key, so a hit is confirmed with `compare`.
fn set_key(d: &Datum) -> Option<Datum> {
    Some(match d {
        Datum::Int(i) => Datum::real(*i as f64 + 0.0),
        Datum::RealBits(b) => Datum::real(f64::from_bits(*b) + 0.0),
        Datum::Null => return None,
        other => other.clone(),
    })
}

impl InCondition {
    /// Shorthand constructor.
    pub fn of(column: &str, values: impl IntoIterator<Item = impl Into<Datum>>) -> InCondition {
        let values: Vec<Datum> = values.into_iter().map(Into::into).collect();
        let mut by_key: HashMap<Datum, Vec<usize>> = HashMap::new();
        for (i, v) in values.iter().enumerate() {
            if let Some(key) = set_key(v) {
                by_key.entry(key).or_default().push(i);
            }
        }
        InCondition {
            column: column.to_string(),
            values,
            by_key,
        }
    }

    /// The accepted values, as listed.
    pub fn values(&self) -> &[Datum] {
        &self.values
    }

    /// Does `datum` equal any of the listed values?
    pub fn matches(&self, datum: &Datum) -> bool {
        set_key(datum)
            .and_then(|key| self.by_key.get(&key))
            .is_some_and(|listed| {
                listed
                    .iter()
                    .any(|&i| CmpOp::Eq.eval(datum.compare(&self.values[i])))
            })
    }
}

impl fmt::Display for InCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.values.iter().map(|v| v.to_string()).collect();
        write!(f, "{} IN ({})", self.column, parts.join(", "))
    }
}

/// A conjunction of conditions (possibly empty = always true).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Predicate {
    /// Single-value comparisons, ANDed together.
    pub conditions: Vec<Condition>,
    /// Membership conditions, ANDed with the comparisons.
    pub in_conditions: Vec<InCondition>,
}

impl Predicate {
    /// The always-true predicate.
    pub fn all() -> Predicate {
        Predicate::default()
    }

    /// A predicate from conditions.
    pub fn of(conditions: Vec<Condition>) -> Predicate {
        Predicate {
            conditions,
            in_conditions: Vec::new(),
        }
    }

    /// Add a condition.
    pub fn and(mut self, c: Condition) -> Predicate {
        self.conditions.push(c);
        self
    }

    /// Add a membership condition.
    pub fn and_in(mut self, c: InCondition) -> Predicate {
        self.in_conditions.push(c);
        self
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.conditions.is_empty() && self.in_conditions.is_empty() {
            return f.write_str("TRUE");
        }
        let parts: Vec<String> = self
            .conditions
            .iter()
            .map(|c| c.to_string())
            .chain(self.in_conditions.iter().map(|c| c.to_string()))
            .collect();
        f.write_str(&parts.join(" AND "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_eval() {
        let cmp = |a: i64, b: i64| Datum::Int(a).compare(&Datum::Int(b));
        assert!(CmpOp::Eq.eval(cmp(3, 3)));
        assert!(!CmpOp::Eq.eval(cmp(3, 4)));
        assert!(CmpOp::Neq.eval(cmp(3, 4)));
        assert!(CmpOp::Lt.eval(cmp(1, 2)));
        assert!(CmpOp::Le.eval(cmp(2, 2)));
        assert!(CmpOp::Gt.eval(cmp(3, 2)));
        assert!(CmpOp::Ge.eval(cmp(2, 2)));
    }

    #[test]
    fn incomparable_fails_everything() {
        let ord = Datum::Null.compare(&Datum::Int(1));
        for op in [
            CmpOp::Eq,
            CmpOp::Neq,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert!(!op.eval(ord));
        }
    }

    #[test]
    fn from_msl_names() {
        assert_eq!(CmpOp::from_name("ge"), Some(CmpOp::Ge));
        assert_eq!(CmpOp::from_name("between"), None);
    }

    #[test]
    fn display() {
        let p = Predicate::all()
            .and(Condition::eq("last_name", "Chung"))
            .and(Condition::cmp("year", CmpOp::Ge, 3));
        assert_eq!(p.to_string(), "last_name = 'Chung' AND year >= 3");
        assert_eq!(Predicate::all().to_string(), "TRUE");
    }

    #[test]
    fn in_condition_matches_and_displays() {
        let c = InCondition::of("last_name", ["Chung", "Able"]);
        assert!(c.matches(&Datum::str("Able")));
        assert!(!c.matches(&Datum::str("Busy")));
        // NULL is never IN anything, matching the SQL treatment.
        assert!(!c.matches(&Datum::Null));
        assert_eq!(c.to_string(), "last_name IN ('Chung', 'Able')");
        let p = Predicate::of(vec![Condition::eq("title", "professor")]).and_in(c);
        assert_eq!(
            p.to_string(),
            "title = 'professor' AND last_name IN ('Chung', 'Able')"
        );
    }

    #[test]
    fn in_condition_membership_is_compare_equality() {
        // The set lookup keeps `Datum::compare`'s numeric promotion...
        let reals = InCondition::of("gpa", [3.0, 2.5]);
        assert!(reals.matches(&Datum::Int(3)));
        assert!(reals.matches(&Datum::real(2.5)));
        assert!(!reals.matches(&Datum::Int(2)));
        let ints = InCondition::of("year", [3, 0]);
        assert!(ints.matches(&Datum::real(3.0)));
        assert!(ints.matches(&Datum::real(-0.0)));
        assert!(!ints.matches(&Datum::str("3")));
        // ...tells apart the integers an f64 cannot...
        let big = InCondition::of("id", [(1i64 << 53) + 1]);
        assert!(big.matches(&Datum::Int((1 << 53) + 1)));
        assert!(!big.matches(&Datum::Int(1 << 53)));
        // ...and NULL is in nothing, listed or not; nor is anything in ().
        let with_null = InCondition::of("x", [Datum::Null, Datum::Int(1)]);
        assert!(!with_null.matches(&Datum::Null));
        assert!(with_null.matches(&Datum::Int(1)));
        let empty = InCondition::of("x", Vec::<Datum>::new());
        assert!(!empty.matches(&Datum::Int(1)) && !empty.matches(&Datum::Null));
        assert!(empty.values().is_empty());
    }
}
