//! Integration tests for the declarative scenario layer: the checked-in
//! `scenarios/*.toml` files are the builtin scenarios, each is in the
//! canonical form `to_toml` emits, and malformed input fails with the
//! right typed [`ScenarioError`] — never a panic.

use std::path::PathBuf;

use evolve_workload::{ScenarioError, ScenarioSpec, BUILTIN_NAMES};

fn scenarios_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios"))
}

/// Every checked-in scenario file is in canonical form: re-emitting the
/// parsed spec reproduces the file byte for byte. This keeps `to_toml`
/// honest and the files free of hand-formatting drift.
#[test]
fn checked_in_scenarios_are_in_canonical_form() {
    let mut files: Vec<PathBuf> = std::fs::read_dir(scenarios_dir())
        .expect("scenarios/ exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    files.sort();
    assert!(files.len() >= BUILTIN_NAMES.len(), "expected every builtin file: {files:?}");
    for path in files {
        let on_disk = std::fs::read_to_string(&path).expect("read scenario file");
        let spec = ScenarioSpec::from_file(&path)
            .unwrap_or_else(|err| panic!("{}: {err}", path.display()));
        assert_eq!(spec.to_toml(), on_disk, "{} is not in canonical form", path.display());
    }
}

/// Every registered builtin resolves from its embedded file, and the
/// embedded copy is the checked-in `scenarios/<name>.toml`.
#[test]
fn every_builtin_name_resolves_from_its_file() {
    for name in BUILTIN_NAMES {
        let builtin = ScenarioSpec::builtin(name).unwrap_or_else(|err| panic!("{name}: {err}"));
        let path = scenarios_dir().join(format!("{name}.toml"));
        let parsed = ScenarioSpec::from_file(&path)
            .unwrap_or_else(|err| panic!("{}: {err}", path.display()));
        assert_eq!(builtin, parsed, "{name}: embedded spec != {}", path.display());
        assert!(!builtin.build().mix.is_empty(), "{name} builds empty");
    }
}

#[test]
fn syntax_errors_carry_the_line() {
    let err = ScenarioSpec::from_toml_str("name = \"x\"\n= broken\n").unwrap_err();
    match err {
        ScenarioError::Syntax { line, .. } => assert_eq!(line, 2),
        other => panic!("expected Syntax, got {other}"),
    }
}

#[test]
fn unknown_fields_are_rejected_with_table_context() {
    let toml = "name = \"x\"\ndescription = \"d\"\nhorizon_secs = 60\nbogus = 1\n";
    match ScenarioSpec::from_toml_str(toml).unwrap_err() {
        ScenarioError::UnknownField { table, field, .. } => {
            assert_eq!(table, "scenario");
            assert_eq!(field, "bogus");
        }
        other => panic!("expected UnknownField, got {other}"),
    }
}

#[test]
fn missing_required_fields_are_typed() {
    // No `name`.
    let toml = "description = \"d\"\nhorizon_secs = 60\n";
    match ScenarioSpec::from_toml_str(toml).unwrap_err() {
        ScenarioError::MissingField { table, field } => {
            assert_eq!(table, "scenario");
            assert_eq!(field, "name");
        }
        other => panic!("expected MissingField, got {other}"),
    }
}

#[test]
fn invalid_values_are_typed() {
    let toml = "name = \"x\"\ndescription = \"d\"\nhorizon_secs = -5\n";
    match ScenarioSpec::from_toml_str(toml).unwrap_err() {
        ScenarioError::InvalidValue { field, .. } => assert_eq!(field, "scenario.horizon_secs"),
        other => panic!("expected InvalidValue, got {other}"),
    }
}

#[test]
fn empty_workload_is_infeasible_not_a_panic() {
    // Structurally fine, but declares nothing to run.
    let toml = "name = \"x\"\ndescription = \"d\"\nhorizon_secs = 60\n\n[cluster]\nnodes = 2\n";
    match ScenarioSpec::from_toml_str(toml).unwrap_err() {
        ScenarioError::Infeasible { field, .. } => assert_eq!(field, "scenario"),
        other => panic!("expected Infeasible, got {other}"),
    }
}

#[test]
fn oversized_allocation_is_infeasible() {
    // A valid builtin, then one service's per-pod allocation inflated
    // past any node: the semantic check must name the offending field.
    let mut spec = ScenarioSpec::builtin("single_diurnal").expect("builtin");
    spec.services[0].alloc = evolve_types::ResourceVec::new(1e9, 1e9, 1e9, 1e9);
    match spec.validate().unwrap_err() {
        ScenarioError::Infeasible { field, .. } => assert!(field.contains("alloc"), "{field}"),
        other => panic!("expected Infeasible, got {other}"),
    }
}

#[test]
fn unknown_builtin_name_is_typed() {
    match ScenarioSpec::builtin("nope").unwrap_err() {
        ScenarioError::UnknownScenario { name } => assert_eq!(name, "nope"),
        other => panic!("expected UnknownScenario, got {other}"),
    }
}

/// Truncating a valid document at every character boundary must produce
/// `Err`, never a panic (the parser sees arbitrary prefixes from editors
/// and partial writes).
#[test]
fn truncated_documents_never_panic() {
    let full = ScenarioSpec::builtin("headline").unwrap().to_toml();
    for end in 0..full.len() {
        if !full.is_char_boundary(end) {
            continue;
        }
        // Any prefix is allowed to parse (a shorter valid doc) or fail
        // with a typed error; what it must not do is panic.
        let _ = ScenarioSpec::from_toml_str(&full[..end]);
    }
}

/// `from_file` on a missing path reports `Io` with the path embedded.
#[test]
fn missing_file_is_an_io_error() {
    match ScenarioSpec::from_file("/nonexistent/evolve/spec.toml").unwrap_err() {
        ScenarioError::Io { path, .. } => assert!(path.contains("nonexistent")),
        other => panic!("expected Io, got {other}"),
    }
}
