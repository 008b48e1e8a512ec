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
use std::sync::Arc;

/// An external function: given the values at its `Bound` positions (in
/// argument order), produce zero or more tuples of values for its `Free`
/// positions (in argument order). Zero tuples = the predicate fails.
pub type ExtFn = Arc<dyn Fn(&[Value]) -> Vec<Vec<Value>> + Send + Sync>;

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

    /// Can this implementation be called on `args`, given which of them
    /// are `bound` (every Bound position must be)?
    pub(crate) fn accepts(&self, args: &[Term], bound: impl Fn(&Term) -> bool) -> bool {
        self.adornment.len() == args.len()
            && (self.adornment.iter().zip(args)).all(|(a, t)| *a == Adornment::Free || bound(t))
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
        f: impl Fn(&[Value]) -> Vec<Vec<Value>> + Send + Sync + 'static,
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

    /// All implementations of a predicate.
    pub fn impls_for(&self, pred: Symbol) -> Vec<&ExternalImpl> {
        self.impls.iter().filter(|i| i.pred == pred).collect()
    }

    /// Can `pred(args)` be evaluated under `bindings` (some implementation
    /// has every Bound position available)? Built-ins need both arguments
    /// bound, except `eq` which can bind one side.
    pub fn callable(&self, pred: Symbol, args: &[Term], b: &Bindings) -> bool {
        if is_builtin(pred) {
            let bound = args.iter().filter(|t| term_value(t, b).is_some()).count();
            return bound == args.len()
                || (pred == Symbol::intern("eq") && bound + 1 == args.len());
        }
        self.impls_for(pred)
            .iter()
            .any(|imp| imp.accepts(args, |t| term_value(t, b).is_some()))
    }

    /// Evaluate `pred(args)` under `bindings`, returning the extended
    /// binding sets (empty = predicate fails; singleton identity = check
    /// succeeded).
    pub fn evaluate(&self, pred: Symbol, args: &[Term], b: &Bindings) -> Result<Vec<Bindings>> {
        if is_builtin(pred) {
            return eval_builtin(pred, args, b);
        }

        // Prefer the implementation with the most bound positions among the
        // callable ones (an all-bound check beats a generator, §2 fn. 2);
        // among equals, the first registered.
        let Some(imp) = self
            .impls_for(pred)
            .into_iter()
            .filter(|imp| imp.accepts(args, |t| term_value(t, b).is_some()))
            .min_by_key(|imp| std::cmp::Reverse(imp.bound_count()))
        else {
            return Err(MedError::External(format!(
                "no callable implementation of {pred}/{} for the available bindings",
                args.len()
            )));
        };

        // Gather bound inputs.
        let mut inputs = Vec::new();
        for (a, t) in imp.adornment.iter().zip(args) {
            if *a == Adornment::Bound {
                inputs.push(term_value(t, b).expect("callable implies bound"));
            }
        }
        let tuples = (imp.f)(&inputs);

        // For each output tuple, unify the free positions (a "free" arg that
        // happens to be bound acts as a filter).
        let free_args = || {
            (imp.adornment.iter().zip(args))
                .filter(|(a, _)| **a == Adornment::Free)
                .map(|(_, t)| t)
        };
        let mut out = Vec::new();
        'tuple: for tuple in tuples {
            if tuple.len() != free_args().count() {
                return Err(MedError::External(format!(
                    "implementation {} returned a tuple of wrong arity",
                    imp.func
                )));
            }
            let mut next = b.clone();
            for (t, produced) in free_args().zip(&tuple) {
                match t {
                    Term::Var(v) => {
                        if !next.bind_mut(*v, BoundValue::Atom(produced.clone())) {
                            continue 'tuple;
                        }
                    }
                    Term::Const(c) => {
                        if !engine::matcher::atomic_eq(c, produced) {
                            continue 'tuple;
                        }
                    }
                    _ => {
                        return Err(MedError::External(format!(
                            "unsupported argument term in {pred}"
                        )))
                    }
                }
            }
            out.push(next);
        }
        Ok(out)
    }
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

fn eval_builtin(pred: Symbol, args: &[Term], b: &Bindings) -> Result<Vec<Bindings>> {
    if args.len() != 2 {
        return Err(MedError::External(format!("{pred} expects 2 arguments")));
    }
    let va = term_value(&args[0], b);
    let vb = term_value(&args[1], b);
    let name = pred.as_str();

    // eq with one free side binds it.
    if name == "eq" {
        match (&va, &vb) {
            (Some(x), None) => {
                if let Term::Var(v) = &args[1] {
                    return Ok(b
                        .bind(*v, BoundValue::Atom(x.clone()))
                        .into_iter()
                        .collect());
                }
            }
            (None, Some(y)) => {
                if let Term::Var(v) = &args[0] {
                    return Ok(b
                        .bind(*v, BoundValue::Atom(y.clone()))
                        .into_iter()
                        .collect());
                }
            }
            _ => {}
        }
    }

    let (Some(x), Some(y)) = (va, vb) else {
        return Err(MedError::External(format!(
            "{pred} requires bound arguments"
        )));
    };
    use std::cmp::Ordering::{Equal, Greater, Less};
    let ord = x.compare_atomic(&y);
    let holds = match (name.as_str(), ord) {
        ("eq", Some(Equal)) => true,
        ("neq", Some(Less | Greater)) => true,
        ("lt", Some(Less)) => true,
        ("le", Some(Less | Equal)) => true,
        ("gt", Some(Greater)) => true,
        ("ge", Some(Greater | Equal)) => true,
        // Incomparable values fail every comparison — irregular data never
        // errors, it just fails to match (§2).
        _ => false,
    };
    Ok(if holds { vec![b.clone()] } else { Vec::new() })
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
        |inputs| {
            let Some(full) = inputs[0].as_str_sym() else {
                return Vec::new();
            };
            match name_to_lnfn(&full.as_str()) {
                Some((ln, fn_)) => vec![vec![Value::str(&ln), Value::str(&fn_)]],
                None => Vec::new(),
            }
        },
    );
    reg.register(
        "decomp",
        "lnfn_to_name",
        vec![Adornment::Free, Adornment::Bound, Adornment::Bound],
        |inputs| {
            let (Some(ln), Some(fn_)) = (inputs[0].as_str_sym(), inputs[1].as_str_sym()) else {
                return Vec::new();
            };
            vec![vec![Value::str(&lnfn_to_name(&ln.as_str(), &fn_.as_str()))]]
        },
    );
    reg.register(
        "decomp",
        "check_name_lnfn",
        vec![Adornment::Bound, Adornment::Bound, Adornment::Bound],
        |inputs| {
            let (Some(full), Some(ln), Some(fn_)) = (
                inputs[0].as_str_sym(),
                inputs[1].as_str_sym(),
                inputs[2].as_str_sym(),
            ) else {
                return Vec::new();
            };
            if check_name_lnfn(&full.as_str(), &ln.as_str(), &fn_.as_str()) {
                vec![vec![]]
            } else {
                Vec::new()
            }
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
    fn argument_columns_alone_evaluate_like_the_whole_row() {
        // decomp(N, LN, FN) with FN bound: name_to_lnfn generates, and the
        // bound "free" FN keeps only an agreeing tuple. The row's other
        // columns, a set among them, change nothing.
        let reg = standard_registry();
        let args = [Term::var("N"), Term::var("LN"), Term::var("FN")];
        let rest = BoundValue::ObjSet(vec![oem::ObjId::from_raw(2), oem::ObjId::from_raw(1)]);
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
