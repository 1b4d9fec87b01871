//! Batch-vs-serial parity on generated decoder workloads.
//!
//! The batch engine must agree with the serial [`Session`] driver on
//! both verdicts and rendered schemes. This is the regression net for
//! cross-engine scheme transport: dependency schemes travel between
//! engines in closed form and are renamed into the consumer's flag and
//! variable spaces (`import_scheme`); a bug there shows up as a
//! spurious "field never added" rejection or a drifted scheme on
//! exactly the deep call-chains these workloads generate.

use rowpoly::batch::{check_sources, BatchOptions, FileInput, Verdict};
use rowpoly::core::Session;
use rowpoly::gen::generate_with_lines;

#[test]
fn batch_matches_serial_on_generated_decoders() {
    for seed in [1u64, 7, 42] {
        let (program, src) = generate_with_lines(200, true, seed);
        let serial = Session::default()
            .infer_program(&program)
            .expect("serial driver checks the generated workload");

        let report = check_sources(
            vec![FileInput {
                path: "gen.rp".to_string(),
                source: src,
            }],
            &BatchOptions::in_memory(4),
        );
        assert!(
            report.ok(),
            "batch rejected a workload the serial driver accepts (seed {seed}):\n{}",
            report.render()
        );

        let defs = report.files[0].defs.as_ref().expect("source parses");
        assert_eq!(defs.len(), serial.defs.len());
        for (batch_def, serial_def) in defs.iter().zip(&serial.defs) {
            match &batch_def.verdict {
                Verdict::Ok { scheme, .. } => assert_eq!(
                    scheme,
                    &serial_def.render(false),
                    "scheme drift for `{}` (seed {seed})",
                    batch_def.name
                ),
                other => panic!(
                    "`{}` did not check: {other:?} (seed {seed})",
                    batch_def.name
                ),
            }
        }
    }
}

/// The serial driver drops the previous environment before freezing
/// each finished definition into the global layer, so every freeze must
/// extend the layer in place: one copy per definition would be O(defs)
/// work each, quadratic over the program. The schemes stay the ones
/// batch checking derives from the same text.
#[test]
fn whole_program_freeze_never_copies_the_global_layer() {
    let (program, src) = generate_with_lines(2600, true, 1);
    assert!(
        program.defs.len() >= 200,
        "workload too small: {} defs",
        program.defs.len()
    );
    let serial = Session::default()
        .infer_program(&program)
        .expect("the generated decoder checks");
    assert_eq!(
        serial.stats.env_layer_copies, 0,
        "a freeze copied the global layer"
    );
    assert!(serial.stats.env <= serial.stats.wall);

    let report = check_sources(
        vec![FileInput {
            path: "decoder.rp".to_string(),
            source: src,
        }],
        &BatchOptions::in_memory(1),
    );
    assert!(report.ok(), "{}", report.render());
    let defs = report.files[0].defs.as_ref().expect("source parses");
    assert_eq!(defs.len(), serial.defs.len());
    for (batch_def, serial_def) in defs.iter().zip(&serial.defs) {
        match &batch_def.verdict {
            Verdict::Ok { scheme, .. } => assert_eq!(
                scheme,
                &serial_def.render(false),
                "scheme drift for `{}`",
                batch_def.name
            ),
            other => panic!("`{}` did not check: {other:?}", batch_def.name),
        }
    }
}
