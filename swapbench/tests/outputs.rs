//! Which sweep rows count as failed, and when a traced sweep rep's rows
//! match the binary's, on fixture rows shaped like the `campaign` and
//! `all` outputs.

use experiments::json::{parse, Json};
use swapbench::outputs::{
    campaign_speedup_geo, classify_campaign, classify_report, report_digest, report_speedup_geo,
    Tally,
};
use swapbench::sweep::check_traced;

fn doc(text: &str) -> Json {
    parse(text).expect("fixture parses")
}

#[test]
fn campaign_ok_but_wrong_counts_and_dnf_does_not() {
    let d = doc(r#"{"cells":[
            {"status":"ok","correct":true,"fault_seed":null,"base_cycles":200,"clean_cycles":100},
            {"status":"ok","correct":false,"fault_seed":null,"base_cycles":200,"clean_cycles":100},
            {"status":"dnf","fault_seed":null},
            {"status":"failed","correct":false,"fault_seed":"00000000000000aa"},
            {"status":"ok","correct":true,"fault_seed":"00000000000000bb"}
        ]}"#);
    assert_eq!(
        classify_campaign(&d),
        Tally {
            attempted: 5,
            failed: 2
        }
    );
    // Only the correct fault-free cell enters the speedup.
    assert!((campaign_speedup_geo(&d) - 2.0).abs() < 1e-12);
}

#[test]
fn report_counts_only_the_rows_its_contracts_forbid() {
    let d = doc(r#"{
        "jobs":2,"wall_ms":12.5,"build_cache":{"hits":1},"run_cache":{"hits":2},
        "runs":[
            {"bench":"crc","system":"baseline","profile":"unified","variant":"","freq_mhz":24,"wall_ms":1.0,
             "result":{"status":"ok","correct":true,"total_cycles":300}},
            {"bench":"crc","system":"SwapRAM","profile":"unified","variant":"","freq_mhz":24,"wall_ms":2.0,
             "result":{"status":"ok","correct":true,"total_cycles":100}},
            {"bench":"lzfx","system":"SwapRAM","profile":"split","variant":"","freq_mhz":24,"wall_ms":0.1,
             "result":{"status":"dnf"}},
            {"bench":"str","system":"baseline","profile":"split","variant":"","freq_mhz":24,"wall_ms":0.1,
             "result":{"status":"ok","correct":false,"total_cycles":5}}
        ],
        "resilience":[
            {"survived":true,"correct":true},
            {"survived":true,"correct":false},
            {"survived":false,"correct":false}
        ],
        "concurrency":[{"outcome":"clean"},{"outcome":"SILENT-WRONG"}],
        "intermittent":[{"outcome":"cycle-limit"},{"outcome":"invariant-violation"}],
        "corruption":[
            {"region":"app-data","outcome":"silent-wrong"},
            {"region":"cached-code","outcome":"silent-wrong"},
            {"region":"metadata","outcome":"silent-wrong"},
            {"region":"metadata","outcome":"detected-repaired"}
        ]}"#);
    // Forbidden: the wrong baseline run, the survived-but-wrong resilience
    // episode, the silent-wrong concurrency episode and the metadata flip.
    assert_eq!(
        classify_report(&d),
        Tally {
            attempted: 15,
            failed: 4
        }
    );
    assert!((report_speedup_geo(&d) - 3.0).abs() < 1e-12);
}

#[test]
fn report_digest_ignores_wall_clock_lines() {
    // Pretty-printed like `Harness::write_json`, which `all` writes.
    let report = |wall: f64, bench: &str| {
        doc(&format!(
            r#"{{"jobs":2,"wall_ms":{wall},"runs":[{{"bench":"{bench}","wall_ms":{wall}}}]}}"#
        ))
        .pretty(2)
    };
    assert_eq!(
        report_digest(&report(5.0, "crc")),
        report_digest(&report(9.5, "crc"))
    );
    assert_ne!(
        report_digest(&report(5.0, "crc")),
        report_digest(&report(5.0, "rsa"))
    );
}

#[test]
fn traced_sweep_must_reproduce_the_binary_rows() {
    let binary = doc(r#"{"jobs":2,"wall_ms":9.0,"generator":"x",
        "runs":[{"bench":"crc","wall_ms":1.0,"cycles":10}],
        "resilience":[{"boots":3}]}"#);
    // Another worker count and other wall-clock times are fine; members
    // the traced walk does not write (`generator`) are not compared.
    let same = doc(r#"{"jobs":1,"wall_ms":20.0,
        "runs":[{"bench":"crc","wall_ms":4.0,"cycles":10}],
        "resilience":[{"boots":3}]}"#);
    assert_eq!(check_traced(&binary, &same), Ok(()));

    let missing = doc(r#"{"runs":[{"bench":"crc","cycles":10}]}"#);
    assert!(check_traced(&binary, &missing)
        .unwrap_err()
        .contains("`resilience`"));
    let fewer = doc(r#"{"runs":[],"resilience":[{"boots":3}]}"#);
    assert!(check_traced(&binary, &fewer)
        .unwrap_err()
        .contains("0 rows traced, 1 from the binary"));
    let other = doc(r#"{"runs":[{"bench":"crc","cycles":11}],"resilience":[{"boots":3}]}"#);
    assert!(check_traced(&binary, &other)
        .unwrap_err()
        .contains("`runs` differs"));
}
