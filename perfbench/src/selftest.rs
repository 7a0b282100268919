//! Tiny-size self-test of the benchmark: every metric `BENCHMARK.json`
//! names is printed with its unit, every check passes, and each injected
//! fault makes a check fail, so the gate cannot pass vacuously.

use crate::measure::{Fault, Outcome, END_TO_END, PER_LAYER};
use crate::{plan, result_line, run_workload, WORKLOADS};

/// Runs one workload at tiny size; returns its outcome and result line.
fn tiny(workload: &str, traced: bool, fault: Fault) -> (Outcome, String) {
    let plan = plan(0.3, 0.01, 2, fault);
    let mut outcome = run_workload(workload, &plan, 7, traced);
    let (line, correct) = result_line(&mut outcome, traced);
    assert_eq!(correct, outcome.check_failures.is_empty());
    assert!(
        line.starts_with(&format!("{{\"correct\": {correct}, \"attempted\": ")),
        "{line}"
    );
    (outcome, line)
}

/// Asserts that `needles` occur in `text` in order, and returns how many
/// times `"unit": ` occurs there, so callers can rule out extra entries.
fn assert_in_order(text: &str, needles: impl IntoIterator<Item = String>) -> usize {
    let mut from = 0;
    for needle in needles {
        match text[from..].find(&needle) {
            Some(at) => from += at + needle.len(),
            None => panic!("{needle} is missing or out of order in {text}"),
        }
    }
    text.matches("\"unit\": ").count()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let workloads = WORKLOADS.map(|w| format!("{{\"name\": \"{w}\", \"why\": "));
    assert_eq!(
        assert_in_order(&text, workloads),
        END_TO_END.len() + PER_LAYER.len()
    );
    let metrics = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|(name, unit)| format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\""));
    assert_in_order(&text, metrics);
}

#[test]
fn every_metric_is_printed_with_its_unit_and_every_check_passes() {
    for workload in WORKLOADS {
        for (traced, catalogue) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let (outcome, line) = tiny(workload, traced, Fault::None);
            assert_eq!(outcome.check_failures, Vec::<String>::new(), "{workload}");
            assert_eq!(outcome.failed, 0, "{workload}");
            let printed = catalogue.iter().map(|(name, unit)| {
                let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
                if !traced {
                    assert!(value > 0.0, "{workload}: {name} = {value}");
                }
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            });
            assert_eq!(
                assert_in_order(&line, printed),
                catalogue.len(),
                "{workload}"
            );
        }
    }
}

#[test]
fn a_corrupted_decision_fails_the_check() {
    for workload in WORKLOADS {
        let (_, line) = tiny(workload, false, Fault::WrongOutput);
        assert!(line.starts_with("{\"correct\": false"), "{workload}");
    }
}

#[test]
fn a_lost_request_fails_the_reply_and_server_accounting() {
    let (outcome, line) = tiny("serve-mixed", false, Fault::LostRequest);
    assert!(line.starts_with("{\"correct\": false"));
    let failures = outcome.check_failures.join("\n");
    for expected in ["got no reply", "errored != ", "the server admitted"] {
        assert!(failures.contains(expected), "{expected} not in {failures}");
    }
}
