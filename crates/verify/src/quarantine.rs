//! Quarantine corpus: failing reproducers persisted to disk.
//!
//! Each entry is one JSON file under the quarantine directory,
//! `<id>.json`, holding the minimized reproducer as embedded QASM-lite
//! plus everything needed to re-run it bit-identically: the fuzz-case
//! seed, pipeline config tag, technique, injected fault spec (if the
//! failure was seeded deliberately), and the oracle verdict that
//! condemned it. Entries are unframed JSON written through the
//! `geyser-store` protocol (a staged `.tmp` unique per write, then an
//! atomic rename) so a crash mid-write can never leave a half-entry
//! that poisons `replay`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use geyser_circuit::{from_qasm, to_qasm, Circuit};
use geyser_hardware::HardwareSpec;
use geyser_store::{stage_write, walk_files};
use serde::{Deserialize, Error, Serialize, Value};

/// One quarantined failure: metadata plus the minimized reproducer.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QuarantineEntry {
    /// Entry identifier; also the file stem.
    pub id: String,
    /// Fuzz-case id that produced the failure (e.g.
    /// `case-0003-adder-4`), or a free-form origin for hand-filed
    /// entries.
    pub case_id: String,
    /// Technique label whose pipeline failed (e.g. `Geyser`).
    pub technique: String,
    /// Pipeline config tag (e.g. `s7-fast-st1`) for reproduction.
    pub config: String,
    /// Derived RNG seed of the fuzz case.
    pub seed: u64,
    /// Fault spec injected when the failure was found, if any. Present
    /// means the failure is *expected* — replay asserts it still
    /// reproduces; absent means a genuine bug — replay fails the build
    /// until the compiler is fixed.
    pub inject: Option<String>,
    /// Failure kind: `miscompile` (oracle rejected the output) or
    /// `compile-error: <detail>`.
    pub failure: String,
    /// Oracle method label that condemned the circuit.
    pub method: String,
    /// Worst fidelity the oracle measured (`-1.0` if unmeasured, e.g.
    /// for compile errors).
    pub worst_fidelity: f64,
    /// Fidelity tolerance in force at the time.
    pub tolerance: f64,
    /// Gate count before minimization.
    pub original_ops: u64,
    /// Gate count of the minimized reproducer.
    pub minimized_ops: u64,
    /// The minimized reproducer as QASM-lite. Angle formatting uses
    /// shortest-roundtrip `f64` display, so parse → emit → parse is
    /// bit-exact and replay sees the same circuit bit for bit.
    pub qasm: String,
    /// Wall-clock milliseconds the minimized reproducer's compile took
    /// when the entry was filed — lets replay runs spot
    /// reproducer-cost regressions across compiler versions. `None`
    /// for entries written before cost tracking existed.
    pub compile_ms: Option<u64>,
    /// Annealer objective evaluations the reproducer's composition
    /// consumed when the entry was filed. `None` for pre-cost-tracking
    /// entries or techniques that never compose.
    pub anneal_evaluations: Option<u64>,
    /// The full hardware scenario the failure was found on, so replay
    /// reproduces hardware-dependent failures on the same machine.
    /// `None` (and for entries filed before hardware fuzzing existed)
    /// means the paper machine.
    pub hardware: Option<HardwareSpec>,
    /// Whether the composition-reuse index was enabled when the
    /// failure was found, so replay takes the same compose path
    /// (replays and warm-starts included). Entries filed before reuse
    /// existed load as `false`.
    pub reuse: bool,
}

// Hand-written so corpora filed before the cost-metadata and
// hardware-spec fields existed still load (the derive rejects missing
// fields): absent `compile_ms`/`anneal_evaluations`/`hardware` keys
// deserialize as `None`.
impl Deserialize for QuarantineEntry {
    fn from_value(value: &Value) -> Result<Self, Error> {
        fn optional<T: Deserialize>(value: &Value, name: &str) -> Result<Option<T>, Error> {
            match value.get_field(name) {
                Ok(v) => Deserialize::from_value(v),
                Err(_) => Ok(None),
            }
        }
        Ok(QuarantineEntry {
            id: Deserialize::from_value(value.get_field("id")?)?,
            case_id: Deserialize::from_value(value.get_field("case_id")?)?,
            technique: Deserialize::from_value(value.get_field("technique")?)?,
            config: Deserialize::from_value(value.get_field("config")?)?,
            seed: Deserialize::from_value(value.get_field("seed")?)?,
            inject: Deserialize::from_value(value.get_field("inject")?)?,
            failure: Deserialize::from_value(value.get_field("failure")?)?,
            method: Deserialize::from_value(value.get_field("method")?)?,
            worst_fidelity: Deserialize::from_value(value.get_field("worst_fidelity")?)?,
            tolerance: Deserialize::from_value(value.get_field("tolerance")?)?,
            original_ops: Deserialize::from_value(value.get_field("original_ops")?)?,
            minimized_ops: Deserialize::from_value(value.get_field("minimized_ops")?)?,
            qasm: Deserialize::from_value(value.get_field("qasm")?)?,
            compile_ms: optional(value, "compile_ms")?,
            anneal_evaluations: optional(value, "anneal_evaluations")?,
            hardware: optional(value, "hardware")?,
            reuse: optional(value, "reuse")?.unwrap_or(false),
        })
    }
}

impl QuarantineEntry {
    /// Parses the embedded reproducer.
    pub fn circuit(&self) -> Result<Circuit, String> {
        from_qasm(&self.qasm).map_err(|e| format!("quarantine entry {}: {e}", self.id))
    }

    /// Embeds a reproducer circuit as QASM-lite.
    pub fn set_circuit(&mut self, circuit: &Circuit) {
        self.qasm = to_qasm(circuit);
    }
}

/// Path of an entry file inside `dir`.
pub fn entry_path(dir: &Path, id: &str) -> PathBuf {
    dir.join(format!("{id}.json"))
}

/// Writes an entry atomically, creating the directory if needed.
/// Returns the entry's final path.
pub fn write_entry(dir: &Path, entry: &QuarantineEntry) -> io::Result<PathBuf> {
    let path = entry_path(dir, &entry.id);
    let body = serde_json::to_string_pretty(entry)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    stage_write(&path, body.as_bytes())?.commit()?;
    Ok(path)
}

/// Loads every `*.json` entry in `dir`, sorted by file name so replay
/// order is stable. A missing directory is an empty corpus; a corrupt
/// entry is a hard error (replay must not silently skip a reproducer).
pub fn load_entries(dir: &Path) -> io::Result<Vec<QuarantineEntry>> {
    let paths: Vec<PathBuf> = walk_files(dir)?
        .into_iter()
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    let mut entries = Vec::with_capacity(paths.len());
    for path in paths {
        let body = fs::read_to_string(&path)?;
        let entry: QuarantineEntry = serde_json::from_str(&body).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("corrupt quarantine entry {}: {e}", path.display()),
            )
        })?;
        entries.push(entry);
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("geyser-quarantine-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample(id: &str) -> QuarantineEntry {
        let mut circuit = Circuit::new(3);
        circuit.h(0).u3(0.1, -2.5, 3.0, 1).cz(0, 1).ccz(0, 1, 2);
        let mut entry = QuarantineEntry {
            id: id.to_string(),
            case_id: "case-0001-adder-4".to_string(),
            technique: "Geyser".to_string(),
            config: "s7-fast-st1".to_string(),
            seed: 0xdead_beef,
            inject: Some("miscompile:0".to_string()),
            failure: "miscompile".to_string(),
            method: "exact-unitary".to_string(),
            worst_fidelity: 0.123456789,
            tolerance: 1e-9,
            original_ops: 40,
            minimized_ops: 4,
            qasm: String::new(),
            compile_ms: Some(12),
            anneal_evaluations: Some(4800),
            hardware: Some(HardwareSpec::near_term()),
            reuse: true,
        };
        entry.set_circuit(&circuit);
        entry
    }

    #[test]
    fn roundtrips_through_disk_bit_identically() {
        let dir = temp_dir("roundtrip");
        let entry = sample("q-0001");
        write_entry(&dir, &entry).unwrap();
        let loaded = load_entries(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0], entry);
        // The embedded circuit survives parse → emit → parse exactly.
        let circuit = loaded[0].circuit().unwrap();
        assert_eq!(to_qasm(&circuit), loaded[0].qasm);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_load_sorted_by_id() {
        let dir = temp_dir("sorted");
        for id in ["q-0003", "q-0001", "q-0002"] {
            write_entry(&dir, &sample(id)).unwrap();
        }
        let ids: Vec<String> = load_entries(&dir)
            .unwrap()
            .into_iter()
            .map(|e| e.id)
            .collect();
        assert_eq!(ids, ["q-0001", "q-0002", "q-0003"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_without_cost_metadata_still_load() {
        // Corpora filed before compile_ms/anneal_evaluations existed
        // must keep loading, with the cost fields absent.
        struct Raw(Value);
        impl serde::Serialize for Raw {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        let entry = sample("q-oldfmt");
        let Value::Map(fields) = serde::Serialize::to_value(&entry) else {
            panic!("entries serialize as maps");
        };
        let pruned: Vec<(String, Value)> = fields
            .into_iter()
            .filter(|(k, _)| k != "compile_ms" && k != "anneal_evaluations")
            .collect();
        let body = serde_json::to_string(&Raw(Value::Map(pruned))).unwrap();
        let loaded: QuarantineEntry = serde_json::from_str(&body).unwrap();
        assert_eq!(loaded.compile_ms, None);
        assert_eq!(loaded.anneal_evaluations, None);
        assert_eq!(loaded.qasm, entry.qasm);
        assert_eq!(loaded.seed, entry.seed);
    }

    #[test]
    fn entries_without_hardware_spec_still_load() {
        // Corpora filed before hardware fuzzing existed carry no
        // `hardware` key; they must load with `None` (paper machine).
        struct Raw(Value);
        impl serde::Serialize for Raw {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        let entry = sample("q-prehw");
        let Value::Map(fields) = serde::Serialize::to_value(&entry) else {
            panic!("entries serialize as maps");
        };
        let pruned: Vec<(String, Value)> = fields
            .into_iter()
            .filter(|(k, _)| k != "hardware")
            .collect();
        let body = serde_json::to_string(&Raw(Value::Map(pruned))).unwrap();
        let loaded: QuarantineEntry = serde_json::from_str(&body).unwrap();
        assert_eq!(loaded.hardware, None);
        assert_eq!(loaded.seed, entry.seed);
    }

    #[test]
    fn recorded_hardware_spec_roundtrips_with_its_digest() {
        let dir = temp_dir("hardware");
        let entry = sample("q-hw");
        write_entry(&dir, &entry).unwrap();
        let loaded = load_entries(&dir).unwrap();
        let spec = loaded[0].hardware.as_ref().expect("spec recorded");
        assert_eq!(
            spec.digest(),
            HardwareSpec::near_term().digest(),
            "replay must see the exact machine the failure was found on"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_without_reuse_flag_still_load() {
        // Corpora filed before the reuse index existed carry no
        // `reuse` key; they must load with reuse off.
        struct Raw(Value);
        impl serde::Serialize for Raw {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        let entry = sample("q-prereuse");
        let Value::Map(fields) = serde::Serialize::to_value(&entry) else {
            panic!("entries serialize as maps");
        };
        let pruned: Vec<(String, Value)> =
            fields.into_iter().filter(|(k, _)| k != "reuse").collect();
        let body = serde_json::to_string(&Raw(Value::Map(pruned))).unwrap();
        let loaded: QuarantineEntry = serde_json::from_str(&body).unwrap();
        assert!(!loaded.reuse);
        assert_eq!(loaded.seed, entry.seed);
    }

    #[test]
    fn missing_directory_is_empty_corpus() {
        let dir = temp_dir("missing");
        assert!(load_entries(&dir).unwrap().is_empty());
    }

    #[test]
    fn corrupt_entry_is_a_hard_error() {
        let dir = temp_dir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("bad.json"), "{ nope").unwrap();
        assert!(load_entries(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn writes_are_atomic_no_tmp_left_behind() {
        let dir = temp_dir("atomic");
        write_entry(&dir, &sample("q-0009")).unwrap();
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().map(|x| x == "tmp").unwrap_or(false))
            .collect();
        assert!(leftovers.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
