//! External predicates (§2, "External Predicates").
//!
//! "In practice, decomp is implemented as a pair of functions,
//! name_to_lnfn and lnfn_to_name (in principle written in any programming
//! language), and defined in the mediator specification." Each
//! implementation function carries an *adornment* saying which arguments it
//! takes bound and which it produces; at runtime the engine picks an
//! implementation whose bound positions are all available ("having more
//! than one function for decomp gives flexibility at execution time").
//!
//! Built-in comparison predicates (`eq`, `neq`, `lt`, `le`, `gt`, `ge`) are
//! always available; `eq` can also *bind* a free argument.

use crate::error::{MedError, Result};
use engine::bindings::{Bindings, BoundValue};
use msl::{Adornment, Term};
use oem::{Symbol, Value};
use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

/// An external function: given the values at its `Bound` positions (in
/// argument order), push the values of zero or more tuples for its `Free`
/// positions (in argument order, one tuple after another) onto the buffer,
/// and return how many tuples it pushed. Zero tuples = the predicate
/// fails.
pub type ExtFn = Arc<dyn Fn(&[Value], &mut Vec<Value>) -> usize + Send + Sync>;

/// One registered implementation.
#[derive(Clone)]
pub struct ExternalImpl {
    /// The predicate name this implementation answers.
    pub pred: Symbol,
    /// The declared function name (`by <func>` in the specification).
    pub func: Symbol,
    /// Which argument positions must be bound / are produced.
    pub adornment: Vec<Adornment>,
    /// The implementation itself.
    pub f: ExtFn,
}

impl ExternalImpl {
    fn bound_count(&self) -> usize {
        self.adornment
            .iter()
            .filter(|a| **a == Adornment::Bound)
            .count()
    }
}

/// The registry of external predicate implementations.
#[derive(Clone, Default)]
pub struct ExternalRegistry {
    impls: Vec<ExternalImpl>,
}

impl ExternalRegistry {
    /// An empty registry (built-ins are still available).
    pub fn new() -> ExternalRegistry {
        ExternalRegistry::default()
    }

    /// Register an implementation function.
    pub fn register(
        &mut self,
        pred: &str,
        func: &str,
        adornment: Vec<Adornment>,
        f: impl Fn(&[Value], &mut Vec<Value>) -> usize + Send + Sync + 'static,
    ) {
        self.impls.push(ExternalImpl {
            pred: Symbol::intern(pred),
            func: Symbol::intern(func),
            adornment,
            f: Arc::new(f),
        });
    }

    /// Look up the implementation registered under a declaration's function
    /// name.
    pub fn by_func(&self, func: Symbol) -> Option<&ExternalImpl> {
        self.impls.iter().find(|i| i.func == func)
    }

    /// Can `pred(args)` be evaluated under `bindings` (some implementation
    /// has every Bound position available)? Built-ins need both arguments
    /// bound, except `eq` which can bind one side.
    pub fn callable(&self, pred: Symbol, args: &[Term], b: &Bindings) -> bool {
        let bound: Vec<bool> = args.iter().map(|t| term_value(t, b).is_some()).collect();
        self.resolve(pred, args, &bound).is_ok()
    }

    /// Which implementation answers `pred(args)` when exactly the
    /// positions `bound` marks hold values: a built-in needs both sides
    /// (`eq` one); otherwise the callable implementation with the most
    /// bound positions (an all-bound check beats a generator, §2 fn. 2),
    /// among equals the first registered.
    pub fn resolve(&self, pred: Symbol, args: &[Term], bound: &[bool]) -> Result<Callee> {
        if is_builtin(pred) {
            let n = bound.iter().filter(|b| **b).count();
            return if n == args.len() || (is_eq(pred) && n + 1 == args.len()) {
                Ok(Callee::Builtin)
            } else {
                Err(MedError::External(format!(
                    "{pred} requires bound arguments"
                )))
            };
        }
        let callable = |imp: &ExternalImpl| {
            imp.pred == pred
                && imp.adornment.len() == args.len()
                && (imp.adornment.iter().zip(bound)).all(|(a, b)| *a == Adornment::Free || *b)
        };
        (self.impls.iter().enumerate())
            .filter(|(_, imp)| callable(imp))
            .min_by_key(|(_, imp)| std::cmp::Reverse(imp.bound_count()))
            .map(|(i, _)| Callee::Impl(i))
            .ok_or_else(|| {
                MedError::External(format!(
                    "no callable implementation of {pred}/{} for the available bindings",
                    args.len()
                ))
            })
    }

    /// Call what [`ExternalRegistry::resolve`] chose on `values`, one per
    /// argument (`None` where unbound). Appends one full argument tuple
    /// per answer to `buf.tuples` — bound positions as given, free ones as
    /// produced — and returns how many it appended. A free position given
    /// a value, or holding a constant, keeps only answers that agree with
    /// it; a variable at two free positions is the caller's to check.
    pub fn call(
        &self,
        callee: Callee,
        pred: Symbol,
        args: &[Term],
        values: &[Option<Value>],
        buf: &mut CallBuffers,
    ) -> Result<usize> {
        let imp = match callee {
            Callee::Builtin => return call_builtin(pred, args, values, &mut buf.tuples),
            Callee::Impl(i) => &self.impls[i],
        };
        let CallBuffers {
            tuples,
            inputs,
            produced,
        } = buf;
        inputs.clear();
        for (k, a) in imp.adornment.iter().enumerate() {
            if *a == Adornment::Bound {
                let Some(v) = &values[k] else {
                    return Err(MedError::External(format!(
                        "{} takes argument {} bound",
                        imp.func,
                        k + 1
                    )));
                };
                inputs.push(v.clone());
            }
        }
        let free = imp
            .adornment
            .iter()
            .filter(|a| **a == Adornment::Free)
            .count();
        produced.clear();
        let n = (imp.f)(inputs, produced);
        if produced.len() != n * free {
            return Err(MedError::External(format!(
                "implementation {} returned a tuple of wrong arity",
                imp.func
            )));
        }
        let mut kept = 0;
        'tuple: for i in 0..n {
            let start = tuples.len();
            let mut own = produced[i * free..(i + 1) * free].iter();
            for ((a, t), given) in imp.adornment.iter().zip(args).zip(values) {
                let Some(v) = given.as_ref().filter(|_| *a == Adornment::Bound) else {
                    // A free position: what the implementation produced.
                    let v = own.next().expect("arity checked above");
                    let agrees = match (t, given) {
                        (Term::Const(c), _) => engine::matcher::atomic_eq(c, v),
                        (Term::Var(_), Some(given)) => given == v,
                        (Term::Var(_), None) => true,
                        _ => {
                            return Err(MedError::External(format!(
                                "unsupported argument term in {pred}"
                            )))
                        }
                    };
                    if !agrees {
                        // Take back what this tuple appended so far.
                        tuples.truncate(start);
                        continue 'tuple;
                    }
                    tuples.push(v.clone());
                    continue;
                };
                tuples.push(v.clone());
            }
            kept += 1;
        }
        Ok(kept)
    }

    /// Evaluate `pred(args)` under `bindings`, returning the extended
    /// binding sets (empty = predicate fails; singleton identity = check
    /// succeeded).
    pub fn evaluate(&self, pred: Symbol, args: &[Term], b: &Bindings) -> Result<Vec<Bindings>> {
        let values: Vec<Option<Value>> = args.iter().map(|t| term_value(t, b)).collect();
        let bound: Vec<bool> = values.iter().map(Option::is_some).collect();
        let callee = self.resolve(pred, args, &bound)?;
        let mut buf = CallBuffers::default();
        let n = self.call(callee, pred, args, &values, &mut buf)?;
        let mut out = Vec::new();
        'answer: for full in buf.first(n, args.len()) {
            let mut next = b.clone();
            for ((t, given), v) in args.iter().zip(&values).zip(full) {
                if let (Term::Var(var), None) = (t, given) {
                    if !next.bind_mut(*var, BoundValue::Atom(v.clone())) {
                        continue 'answer;
                    }
                }
            }
            out.push(next);
        }
        Ok(out)
    }
}

/// The buffers of [`ExternalRegistry::call`]: the full tuples it appends,
/// and the scratch it passes an implementation. A caller keeps them from
/// one call to the next, so a call allocates nothing once they have grown.
#[derive(Default)]
pub struct CallBuffers {
    /// Full argument tuples, one after another, `args.len()` values each.
    pub tuples: Vec<Value>,
    inputs: Vec<Value>,
    produced: Vec<Value>,
}

impl CallBuffers {
    /// The first `n` tuples of `tuples`, `arity` values each.
    pub fn first(&self, n: usize, arity: usize) -> impl Iterator<Item = &[Value]> {
        (0..n).map(move |k| &self.tuples[k * arity..(k + 1) * arity])
    }
}

/// Which implementation a call goes to: what this registry's
/// [`ExternalRegistry::resolve`] returned, for its own
/// [`ExternalRegistry::call`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Callee {
    /// A built-in comparison.
    Builtin,
    /// The registry's implementation at this position.
    Impl(usize),
}

/// Is this one of MSL's built-in comparison predicates?
pub fn is_builtin(pred: Symbol) -> bool {
    msl::validate::is_builtin(pred)
}

fn term_value(t: &Term, b: &Bindings) -> Option<Value> {
    match t {
        Term::Const(v) => Some(v.clone()),
        Term::Var(v) => match b.get(*v) {
            Some(BoundValue::Atom(val)) => Some(val.clone()),
            _ => None,
        },
        _ => None,
    }
}

/// Is `pred` the built-in `eq`, which can bind one side?
fn is_eq(pred: Symbol) -> bool {
    pred == builtin_orders()[0].0
}

/// The built-in comparisons, `eq` first, each with the orderings of its
/// two arguments under which it holds. Interned once.
fn builtin_orders() -> &'static [(Symbol, &'static [Ordering]); 6] {
    use Ordering::{Equal, Greater, Less};
    static ORDERS: OnceLock<[(Symbol, &'static [Ordering]); 6]> = OnceLock::new();
    ORDERS.get_or_init(|| {
        [
            ("eq", &[Equal][..]),
            ("neq", &[Less, Greater]),
            ("lt", &[Less]),
            ("le", &[Less, Equal]),
            ("gt", &[Greater]),
            ("ge", &[Greater, Equal]),
        ]
        .map(|(name, holds)| (Symbol::intern(name), holds))
    })
}

/// A built-in comparison on its two argument values: appends the full
/// tuple to `out` when it holds. `eq` with one side unbound binds it to
/// the other.
fn call_builtin(
    pred: Symbol,
    args: &[Term],
    values: &[Option<Value>],
    out: &mut Vec<Value>,
) -> Result<usize> {
    let [va, vb] = values else {
        return Err(MedError::External(format!("{pred} expects 2 arguments")));
    };
    let (x, y) = match (va, vb, args) {
        (Some(x), Some(y), _) => (x, y),
        (Some(v), None, [_, Term::Var(_)]) | (None, Some(v), [Term::Var(_), _]) if is_eq(pred) => {
            out.extend([v.clone(), v.clone()]);
            return Ok(1);
        }
        _ => {
            return Err(MedError::External(format!(
                "{pred} requires bound arguments"
            )))
        }
    };
    // Incomparable values fail every comparison — irregular data never
    // errors, it just fails to match (§2).
    let holds = x.compare_atomic(y).is_some_and(|ord| {
        (builtin_orders().iter()).any(|(name, holds)| *name == pred && holds.contains(&ord))
    });
    if !holds {
        return Ok(0);
    }
    out.extend([x.clone(), y.clone()]);
    Ok(1)
}

/// The standard library: the paper's `decomp` predicate, implemented by
/// `name_to_lnfn` (bound, free, free), `lnfn_to_name` (free, bound, bound)
/// and `check_name_lnfn` (bound, bound, bound), backed by
/// [`wrappers::scenario`]'s pure functions.
pub fn standard_registry() -> ExternalRegistry {
    use wrappers::scenario::{check_name_lnfn, lnfn_to_name, name_to_lnfn};
    let mut reg = ExternalRegistry::new();
    reg.register(
        "decomp",
        "name_to_lnfn",
        vec![Adornment::Bound, Adornment::Free, Adornment::Free],
        |inputs, out| {
            let Some(full) = inputs[0].as_str_sym() else {
                return 0;
            };
            full.with_str(|full| match name_to_lnfn(full) {
                Some((ln, fn_)) => {
                    out.extend([Value::str(ln), Value::str(fn_)]);
                    1
                }
                None => 0,
            })
        },
    );
    reg.register(
        "decomp",
        "lnfn_to_name",
        vec![Adornment::Free, Adornment::Bound, Adornment::Bound],
        |inputs, out| {
            let (Some(ln), Some(fn_)) = (inputs[0].as_str_sym(), inputs[1].as_str_sym()) else {
                return 0;
            };
            let full = ln.with_str(|ln| fn_.with_str(|fn_| lnfn_to_name(ln, fn_)));
            out.push(Value::str(&full));
            1
        },
    );
    reg.register(
        "decomp",
        "check_name_lnfn",
        vec![Adornment::Bound, Adornment::Bound, Adornment::Bound],
        |inputs, _| {
            let (Some(full), Some(ln), Some(fn_)) = (
                inputs[0].as_str_sym(),
                inputs[1].as_str_sym(),
                inputs[2].as_str_sym(),
            ) else {
                return 0;
            };
            let holds = full.with_str(|full| {
                ln.with_str(|ln| fn_.with_str(|fn_| check_name_lnfn(full, ln, fn_)))
            });
            usize::from(holds)
        },
    );
    reg
}

/// Which declared implementations a registry is missing for a spec — used
/// by [`crate::spec::MediatorSpec`] validation.
pub fn missing_functions(spec: &msl::Spec, reg: &ExternalRegistry) -> Vec<Symbol> {
    let mut missing = Vec::new();
    for d in &spec.externals {
        if reg.by_func(d.func).is_none() && !missing.contains(&d.func) {
            missing.push(d.func);
        }
    }
    missing
}

#[cfg(test)]
mod tests {
    use super::*;
    use oem::sym;

    fn bind(var: &str, v: Value) -> Bindings {
        Bindings::new().bind(sym(var), BoundValue::Atom(v)).unwrap()
    }

    #[test]
    fn decomp_forward() {
        // decomp('Joe Chung', LN, FN) via name_to_lnfn.
        let reg = standard_registry();
        let b = bind("N", Value::str("Joe Chung"));
        let args = [Term::var("N"), Term::var("LN"), Term::var("FN")];
        assert!(reg.callable(sym("decomp"), &args, &b));
        let out = reg.evaluate(sym("decomp"), &args, &b).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].get(sym("LN")).unwrap(),
            &BoundValue::Atom(Value::str("Chung"))
        );
        assert_eq!(
            out[0].get(sym("FN")).unwrap(),
            &BoundValue::Atom(Value::str("Joe"))
        );
    }

    #[test]
    fn decomp_backward() {
        // decomp(N, 'Chung', 'Joe') via lnfn_to_name.
        let reg = standard_registry();
        let b = Bindings::new();
        let args = [Term::var("N"), Term::str("Chung"), Term::str("Joe")];
        let out = reg.evaluate(sym("decomp"), &args, &b).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].get(sym("N")).unwrap(),
            &BoundValue::Atom(Value::str("Joe Chung"))
        );
    }

    #[test]
    fn decomp_all_bound_prefers_check() {
        // All three bound: check_name_lnfn is chosen (most bound positions)
        // and acts as a filter.
        let reg = standard_registry();
        let args = [Term::str("Joe Chung"), Term::str("Chung"), Term::str("Joe")];
        let out = reg
            .evaluate(sym("decomp"), &args, &Bindings::new())
            .unwrap();
        assert_eq!(out.len(), 1);
        let bad = [Term::str("Joe Chung"), Term::str("Chung"), Term::str("Bob")];
        assert!(reg
            .evaluate(sym("decomp"), &bad, &Bindings::new())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn free_position_already_bound_filters() {
        // decomp('Joe Chung', LN, 'Joe') — name_to_lnfn generates, the FN
        // output must agree with the constant.
        let reg = standard_registry();
        let args = [Term::str("Joe Chung"), Term::var("LN"), Term::str("Joe")];
        let out = reg
            .evaluate(sym("decomp"), &args, &Bindings::new())
            .unwrap();
        assert_eq!(out.len(), 1);
        let args = [Term::str("Joe Chung"), Term::var("LN"), Term::str("Bob")];
        assert!(reg
            .evaluate(sym("decomp"), &args, &Bindings::new())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn a_batch_of_calls_appends_only_the_tuples_it_keeps() {
        // decomp(N, LN, 'Bob') over a batch of rows into one buffer:
        // name_to_lnfn produces a tuple for every name, and the constant
        // keeps those whose first name is Bob. A rejected tuple leaves
        // nothing behind, so the kept ones lie one after another.
        let reg = standard_registry();
        let args = [Term::var("N"), Term::var("LN"), Term::str("Bob")];
        let names = ["Joe Chung", "Bob Smith", "Ann Lee", "Bob Jones"];
        let mut buf = CallBuffers::default();
        let mut kept = Vec::new();
        for name in names {
            let values = [Some(Value::str(name)), None, Some(Value::str("Bob"))];
            let callee = reg
                .resolve(sym("decomp"), &args, &[true, false, true])
                .unwrap();
            kept.push(
                reg.call(callee, sym("decomp"), &args, &values, &mut buf)
                    .unwrap(),
            );
        }
        assert_eq!(kept, [0, 1, 0, 1]);
        let tuples: Vec<Value> = ["Bob Smith", "Smith", "Bob", "Bob Jones", "Jones", "Bob"]
            .map(Value::str)
            .into();
        assert_eq!(buf.tuples, tuples);
    }

    #[test]
    fn argument_columns_alone_evaluate_like_the_whole_row() {
        // decomp(N, LN, FN) with FN bound: name_to_lnfn generates, and the
        // bound "free" FN keeps only an agreeing tuple. The row's other
        // columns, a set among them, change nothing.
        let reg = standard_registry();
        let args = [Term::var("N"), Term::var("LN"), Term::var("FN")];
        let rest = BoundValue::ObjSet([2, 1].map(oem::ObjId::from_raw).into());
        let new_values = |b: &Bindings| -> Vec<Option<BoundValue>> {
            reg.evaluate(sym("decomp"), &args, b)
                .unwrap()
                .iter()
                .map(|nb| nb.get(sym("LN")).cloned())
                .collect()
        };
        for (first, kept) in [("Joe", 1), ("Bob", 0)] {
            let only_args = bind("N", Value::str("Joe Chung"))
                .bind(sym("FN"), BoundValue::Atom(Value::str(first)))
                .unwrap();
            let whole_row = only_args
                .bind(sym("Rest1"), rest.clone())
                .unwrap()
                .bind(sym("R"), BoundValue::Atom(Value::str("employee")))
                .unwrap();
            let got = new_values(&only_args);
            assert_eq!(got, new_values(&whole_row), "FN = {first}");
            assert_eq!(got.len(), kept, "FN = {first}");
        }
        assert_eq!(
            new_values(&bind("N", Value::str("Joe Chung"))),
            [Some(BoundValue::Atom(Value::str("Chung")))]
        );
    }

    #[test]
    fn uncallable_errors() {
        let reg = standard_registry();
        // Nothing bound: no implementation applies.
        let args = [Term::var("N"), Term::var("LN"), Term::var("FN")];
        assert!(!reg.callable(sym("decomp"), &args, &Bindings::new()));
        assert!(matches!(
            reg.evaluate(sym("decomp"), &args, &Bindings::new()),
            Err(MedError::External(_))
        ));
    }

    #[test]
    fn builtins() {
        let reg = ExternalRegistry::new();
        let b = bind("Y", Value::Int(3));
        let holds = reg
            .evaluate(sym("ge"), &[Term::var("Y"), Term::int(3)], &b)
            .unwrap();
        assert_eq!(holds.len(), 1);
        let fails = reg
            .evaluate(sym("gt"), &[Term::var("Y"), Term::int(3)], &b)
            .unwrap();
        assert!(fails.is_empty());
        // eq binds a free variable.
        let out = reg
            .evaluate(sym("eq"), &[Term::var("Z"), Term::int(7)], &b)
            .unwrap();
        assert_eq!(
            out[0].get(sym("Z")).unwrap(),
            &BoundValue::Atom(Value::Int(7))
        );
    }

    #[test]
    fn missing_functions_detected() {
        let spec = msl::parse_spec(
            "<o {<n N>}> :- <p {<n N>}>@s AND d(N, M)\nd(bound, free) by mystery_fn",
        )
        .unwrap();
        let reg = standard_registry();
        assert_eq!(missing_functions(&spec, &reg), vec![sym("mystery_fn")]);
    }
}
