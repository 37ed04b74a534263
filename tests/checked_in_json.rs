//! Every JSON file the repository checks in reads back and writes out to
//! the same bytes: the benchmark baseline and history (compact JSON run
//! through `report::pretty`, as a bless writes them) and every fuzz corpus
//! entry (compact JSON and a newline, as `corpus::save` writes them). What
//! the serde shim writes is what it read, key order, escapes and floats
//! included.

use std::path::Path;

use rapid_fuzz::corpus::{corpus_dir, CorpusEntry};
use rapid_report::report::{pretty, BenchmarkData, History};

fn roundtrips<T: serde::Serialize + serde::Deserialize>(
    path: &Path,
    write: impl Fn(&str) -> String,
) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    let value: T = serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {path:?}: {e}"));
    let compact = serde_json::to_string(&value).unwrap();
    assert!(
        write(&compact) == text,
        "{path:?} does not re-serialize byte for byte"
    );
}

fn bench_file(compact: &str) -> String {
    pretty(compact) + "\n"
}

#[test]
fn bench_files_reserialize_byte_for_byte() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    roundtrips::<BenchmarkData>(&root.join("BENCH_baseline.json"), bench_file);
    roundtrips::<History>(&root.join("BENCH_history.json"), bench_file);
}

#[test]
fn corpus_entries_reserialize_byte_for_byte() {
    let mut seen = 0;
    for entry in std::fs::read_dir(corpus_dir()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|x| x == "json") {
            roundtrips::<CorpusEntry>(&path, |compact| format!("{compact}\n"));
            seen += 1;
        }
    }
    assert!(seen > 0, "no corpus entry found");
}
