//! The seeded-defect fixture specifications under `tests/specs/` each
//! trigger their distinct specflow code, while the good fixture stays
//! clean. These are the same files CI feeds to `medmaker check --json`.

use medmaker::analysis::check_text;
use medmaker::SourceInfo;
use oem::{sym, Symbol};
use std::collections::BTreeMap;
use std::path::PathBuf;
use wrappers::{Capabilities, SemiStructuredWrapper};

fn specs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/specs")
}

fn fixture(name: &str) -> String {
    std::fs::read_to_string(specs_dir().join(name)).unwrap()
}

/// The `src` source every fixture matches against, summarized from the
/// shared `src.oem` store (closed schema: string name/dept, int year).
fn src_info() -> BTreeMap<Symbol, SourceInfo> {
    let text = fixture("src.oem");
    let store = oem::parser::parse_store(&text).unwrap();
    let w = SemiStructuredWrapper::new("src", store);
    let mut m = BTreeMap::new();
    m.insert(sym("src"), SourceInfo::of_wrapper(&w));
    m
}

fn codes_of(diags: &[msl::Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.code).collect()
}

#[test]
fn good_fixture_is_clean() {
    let (_, diags, analysis) = check_text(&fixture("good.msl"), "med", &src_info()).unwrap();
    assert!(diags.is_empty(), "{diags:?}");
    assert!(analysis.dead_views.is_empty());
    // Every view got an answerability matrix, and none is empty.
    for v in ["v_person", "v_senior", "v_all"] {
        let m = analysis.matrices.get(&sym(v)).expect(v);
        assert!(!m.is_empty(), "view {v} should be answerable");
    }
}

#[test]
fn type_mismatch_fixture_is_e301() {
    let (_, diags, _) = check_text(&fixture("type_mismatch.msl"), "med", &src_info()).unwrap();
    assert!(codes_of(&diags).contains(&"E301"), "{diags:?}");
    assert!(diags.iter().any(|d| d.is_error()));
}

#[test]
fn unknown_label_fixture_is_w301_with_did_you_mean() {
    let (_, diags, _) = check_text(&fixture("unknown_label.msl"), "med", &src_info()).unwrap();
    let d = diags
        .iter()
        .find(|d| d.code == "W301")
        .unwrap_or_else(|| panic!("no W301 in {diags:?}"));
    assert!(!d.is_error());
    assert!(
        d.help
            .as_deref()
            .unwrap_or("")
            .contains("did you mean 'name'"),
        "{d:?}"
    );
}

#[test]
fn dead_view_fixture_is_w302() {
    let (_, diags, analysis) = check_text(&fixture("dead_view.msl"), "med", &src_info()).unwrap();
    assert!(codes_of(&diags).contains(&"W302"), "{diags:?}");
    assert_eq!(analysis.dead_views, [sym("lost")].into_iter().collect());
    // The live view is untouched.
    assert!(!analysis.matrices[&sym("live")].is_empty());
}

#[test]
fn unanswerable_fixture_is_e302_against_a_form_source() {
    // `form` refuses to enumerate: it requires a bound condition on
    // `name`, which the fixture's rule never mentions.
    let mut sources = BTreeMap::new();
    sources.insert(
        sym("form"),
        SourceInfo {
            caps: Capabilities::full().with_required_condition_on(sym("name")),
            summary: None,
        },
    );
    let (_, diags, analysis) = check_text(&fixture("unanswerable.msl"), "med", &sources).unwrap();
    assert!(codes_of(&diags).contains(&"E302"), "{diags:?}");
    assert!(analysis.matrices[&sym("v")].is_empty());
}

#[test]
fn fixtures_trigger_pairwise_distinct_codes() {
    // The seeded defects are distinguishable: each bad fixture's most
    // severe new-code finding differs from every other's.
    let mut seen = Vec::new();
    for (file, want) in [
        ("type_mismatch.msl", "E301"),
        ("unknown_label.msl", "W301"),
        ("dead_view.msl", "W302"),
        ("consumed_rest_label.msl", "W303"),
    ] {
        let (_, diags, _) = check_text(&fixture(file), "med", &src_info()).unwrap();
        assert!(codes_of(&diags).contains(&want), "{file}: {diags:?}");
        assert!(!seen.contains(&want), "{file} repeats {want}");
        seen.push(want);
    }
}

#[test]
fn a_mediator_checks_every_fixture_as_check_text_does() {
    // One front door: building a mediator keeps exactly `check_text`'s
    // warnings, or is refused with exactly its errors, in the same order.
    use medmaker::{MedError, Mediator, MediatorOptions};
    use std::sync::Arc;
    use wrappers::Wrapper;
    let store = || oem::parser::parse_store(&fixture("src.oem")).unwrap();
    // Name, specification text, the sources it is checked against.
    type Case = (String, String, Vec<Arc<dyn Wrapper>>);
    let mut cases: Vec<Case> = Vec::new();
    let mut files: Vec<PathBuf> = std::fs::read_dir(specs_dir())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "msl"))
        .collect();
    files.sort();
    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let source: Arc<dyn Wrapper> = if name == "unanswerable.msl" {
            let caps = Capabilities::full().with_required_condition_on(sym("name"));
            Arc::new(SemiStructuredWrapper::new("form", store()).with_capabilities(caps))
        } else {
            Arc::new(SemiStructuredWrapper::new("src", store()))
        };
        cases.push((name, std::fs::read_to_string(&path).unwrap(), vec![source]));
    }
    cases.push((
        "MS1".to_string(),
        wrappers::scenario::MS1.to_string(),
        vec![
            Arc::new(wrappers::scenario::whois_wrapper()),
            Arc::new(wrappers::scenario::cs_wrapper()),
        ],
    ));

    let mut rejected = Vec::new();
    for (name, text, sources) in cases {
        let infos = sources
            .iter()
            .map(|w| (w.name(), SourceInfo::of_wrapper(w.as_ref())))
            .collect();
        let (_, diags, _) = check_text(&text, "med", &infos).unwrap();
        let (errors, warnings): (Vec<_>, Vec<_>) = diags.into_iter().partition(|d| d.is_error());
        let built = Mediator::new_with_options(
            "med",
            &text,
            sources,
            medmaker::externals::standard_registry(),
            MediatorOptions::default(),
        );
        match built {
            Ok(med) => {
                assert!(errors.is_empty(), "{name}: built despite {errors:?}");
                assert_eq!(med.lint_warnings(), &warnings[..], "{name}");
                if name == "consumed_rest_label.msl" {
                    assert!(warnings.iter().any(|d| d.code == "W303"), "{warnings:?}");
                }
            }
            Err(MedError::Lint(got)) => {
                assert_eq!(got, errors, "{name}");
                rejected.push(name);
            }
            Err(e) => panic!("{name}: {e}"),
        }
    }
    assert_eq!(rejected, ["type_mismatch.msl", "unanswerable.msl"]);
}
