//! Lint fixtures: one module per violation class under `tests/lint/`,
//! each flagged with the expected machine-readable `lint::*` code by the
//! same lint suite `axi4mlir-lint` runs. Also
//! pins the inverse property — every golden pipeline input is
//! lint-clean and compiles with the dialect verifier after every pass
//! (the `--verify-each` mode).

use axi4mlir::compiler::driver::PipelineBuilder;
use axi4mlir::dialects::lint;
use axi4mlir::dialects::verify::verify_dialects;
use axi4mlir::ir::parser::parse_module;
use axi4mlir::support::diag::DiagnosticEngine;

/// Lints one fixture and returns every emitted code, asserting the run
/// failed (all fixture classes are error severity).
fn lint_codes(name: &str) -> Vec<String> {
    let path = format!("{}/tests/lint/{name}.mlir", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let module = parse_module(&text).unwrap_or_else(|d| panic!("{name}: {}", d.message));
    let mut diags = DiagnosticEngine::new();
    let result = lint::lint_module(&module.ctx, module.top(), &mut diags);
    assert!(result.is_err(), "{name} must fail the lint suite");
    diags.diagnostics().iter().filter_map(|d| d.code.clone()).collect()
}

fn assert_flagged(name: &str, code: &str) {
    let codes = lint_codes(name);
    assert!(codes.iter().any(|c| c == code), "{name}: expected {code}, got {codes:?}");
}

#[test]
fn isa_opcode_fixture_is_flagged() {
    assert_flagged("isa_opcode", lint::LINT_ISA_OPCODE);
}

#[test]
fn flow_legal_fixture_is_flagged() {
    assert_flagged("flow_legal", lint::LINT_FLOW_LEGAL);
}

#[test]
fn dma_bounds_fixture_is_flagged() {
    assert_flagged("dma_bounds", lint::LINT_DMA_BOUNDS);
}

#[test]
fn fifo_capacity_fixture_is_flagged() {
    assert_flagged("fifo_capacity", lint::LINT_FIFO_CAPACITY);
}

#[test]
fn dead_annotation_fixture_is_flagged() {
    assert_flagged("dead_annotation", lint::LINT_DEAD_ANNOTATION);
}

#[test]
fn shape_tile_fixture_is_flagged() {
    assert_flagged("shape_tile", lint::LINT_SHAPE_TILE);
}

/// Every golden input is lint-clean (no error-severity findings) and
/// survives the full pipeline with the dialect verifier re-run after
/// every pass — what `axi4mlir-lint` followed by
/// `axi4mlir-opt --verify-each` checks.
#[test]
fn golden_inputs_are_lint_clean_and_verify_each_pass() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).expect("golden dir") {
        let path = entry.expect("entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !name.ends_with(".mlir") || name.ends_with(".expected.mlir") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read golden input");
        let mut module = parse_module(&text).unwrap_or_else(|d| panic!("{name}: {}", d.message));

        let mut diags = DiagnosticEngine::new();
        lint::lint_module(&module.ctx, module.top(), &mut diags)
            .unwrap_or_else(|d| panic!("{name} must be lint-clean: {d}"));

        let mut pm = PipelineBuilder::new().pre_annotated().build();
        pm.add_verifier(Box::new(|m| {
            let mut diags = DiagnosticEngine::new();
            verify_dialects(&m.ctx, m.top(), &mut diags)
        }));
        pm.run(&mut module).unwrap_or_else(|d| panic!("{name} under --verify-each: {d}"));
        checked += 1;
    }
    assert!(checked >= 3, "expected at least the three seed golden inputs, saw {checked}");
}
