//! Golden-file test pinning the apm-snap container format.
//!
//! The checked-in `tests/data/snap_golden.bin` was produced by this test
//! (run with `SNAP_GOLDEN_UPDATE=1` to regenerate after an intentional
//! format change — which must also bump `apm_core::snap::VERSION`). Any
//! unintentional encoding drift fails the byte comparison.

use apm_core::record::{ApmMeasurement, FieldValues, MetricKey, Record};
use apm_core::snap::{self, SnapError, SnapReader, SnapWriter, SnapshotHeader};
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;

fn data_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("data")
        .join(file)
}

fn golden_path() -> PathBuf {
    data_path("snap_golden.bin")
}

/// Records in each of the four key/fields encodings: an id's key with
/// its seed's fields, then with other fields, a literal key with fields
/// that no key id before them seeds, and an id's key after it.
fn golden_records() -> [Record; 4] {
    let other = ApmMeasurement {
        metric: String::new(),
        value: 4,
        min: 1,
        max: 6,
        timestamp: 1_332_988_833,
        duration: 15,
    }
    .to_record(7);
    [
        Record::from_id(0x0123_4567_89AB_CDEF),
        other,
        Record {
            key: MetricKey::MAX,
            fields: FieldValues::from_seed(7),
        },
        Record::from_id(u64::MAX),
    ]
}

/// A fixed structure exercising every primitive the format defines.
fn golden_bytes() -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put(&0x42u8);
    w.put(&0xBEEFu16);
    w.put(&0xDEAD_BEEFu32);
    w.put(&0x0123_4567_89AB_CDEFu64);
    w.put(&(u128::from(u64::MAX) + 7));
    w.put(&true);
    w.put(&false);
    w.put(&1.5f64);
    w.put(&"snapshot".to_string());
    w.put(&Some(99u64));
    w.put(&None::<u64>);
    w.put(&vec![3u64, 1, 4, 1, 5]);
    w.put(&[9u32, 8, 7].into_iter().collect::<VecDeque<u32>>());
    w.put(
        &[("lsm".to_string(), 1u64), ("wal".to_string(), 2)]
            .into_iter()
            .collect::<BTreeMap<String, u64>>(),
    );
    for record in golden_records() {
        w.put(&record);
    }
    let header = SnapshotHeader {
        scenario: "golden".to_string(),
        config_fingerprint: 0xF1F2_F3F4_F5F6_F7F8,
        features: snap::FEATURE_AUDIT,
        checkpoint_index: 2,
        virtual_time_ns: 30_000_000_000,
    };
    snap::seal(&header, w.bytes())
}

#[test]
fn container_bytes_match_the_golden_file() {
    let produced = golden_bytes();
    let path = golden_path();
    if std::env::var_os("SNAP_GOLDEN_UPDATE").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &produced).unwrap();
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with SNAP_GOLDEN_UPDATE=1",
            path.display()
        )
    });
    assert_eq!(
        produced, golden,
        "snapshot encoding drifted from the golden file — if intentional, bump snap::VERSION and regenerate"
    );
}

#[test]
fn golden_file_still_opens_and_decodes() {
    let golden = std::fs::read(golden_path()).expect("golden file present");
    let (header, body) = snap::open(&golden).unwrap();
    assert_eq!(header.scenario, "golden");
    assert_eq!(header.checkpoint_index, 2);
    assert_eq!(header.virtual_time_ns, 30_000_000_000);
    let mut r = SnapReader::new(body);
    assert_eq!(r.get::<u8>().unwrap(), 0x42);
    assert_eq!(r.get::<u16>().unwrap(), 0xBEEF);
    assert_eq!(r.get::<u32>().unwrap(), 0xDEAD_BEEF);
    assert_eq!(r.get::<u64>().unwrap(), 0x0123_4567_89AB_CDEF);
    assert_eq!(r.get::<u128>().unwrap(), u128::from(u64::MAX) + 7);
    assert!(r.get::<bool>().unwrap());
    assert!(!r.get::<bool>().unwrap());
    assert_eq!(r.get::<f64>().unwrap(), 1.5);
    assert_eq!(r.get::<String>().unwrap(), "snapshot");
    assert_eq!(r.get::<Option<u64>>().unwrap(), Some(99));
    assert_eq!(r.get::<Option<u64>>().unwrap(), None);
    assert_eq!(r.get::<Vec<u64>>().unwrap(), vec![3, 1, 4, 1, 5]);
    assert_eq!(
        r.get::<VecDeque<u32>>().unwrap(),
        [9u32, 8, 7].into_iter().collect::<VecDeque<u32>>()
    );
    let map: BTreeMap<String, u64> = r.get().unwrap();
    assert_eq!(map.get("lsm"), Some(&1));
    assert_eq!(map.get("wal"), Some(&2));
    for record in golden_records() {
        assert_eq!(r.get::<Record>().unwrap(), record);
    }
    r.finish().unwrap();
}

#[test]
fn version_bump_is_rejected() {
    let mut bytes = golden_bytes();
    let bumped = (snap::VERSION + 1).to_le_bytes();
    bytes[4] = bumped[0];
    bytes[5] = bumped[1];
    let len = bytes.len();
    let checksum = snap::checksum64(&bytes[..len - 8]).to_le_bytes();
    bytes[len - 8..].copy_from_slice(&checksum);
    assert_eq!(
        snap::open(&bytes).unwrap_err(),
        SnapError::VersionMismatch {
            found: snap::VERSION + 1,
            expected: snap::VERSION
        }
    );
}

/// The golden file as each retired version sealed it: `snap_v2.bin` (an
/// FNV-1a checksum), `snap_v3.bin` (before a generated record was written
/// as its id), `snap_v4.bin` (before a body held each fact of a run once)
/// and `snap_v5.bin` (before a storage engine's section did). Each is
/// refused by its version, never misread.
#[test]
fn retired_container_versions_are_refused_by_their_version() {
    let read = |version: u16| {
        std::fs::read(data_path(&format!("snap_v{version}.bin"))).expect("fixture present")
    };
    for found in [2, 3, 4, 5] {
        let refusal = snap::open(&read(found)).unwrap_err();
        assert_eq!(refusal, SnapError::VersionMismatch { found, expected: 6 });
        assert_eq!(
            refusal.to_string(),
            format!("snapshot format v{found}, this build reads v6")
        );
    }
    // Version 3 changed the envelope and nothing inside it, and so did
    // versions 5 and 6 over the golden body before them: in each pair the
    // version field and the trailing checksum are the only bytes that
    // differ.
    let golden = std::fs::read(golden_path()).expect("golden file present");
    for (old, new) in [(read(2), read(3)), (read(4), read(5)), (read(5), golden)] {
        assert_eq!(old.len(), new.len());
        let differing: Vec<usize> = (0..new.len()).filter(|&i| old[i] != new[i]).collect();
        let envelope = |i: &usize| *i == 4 || *i == 5 || *i >= new.len() - 8;
        assert!(differing.iter().all(envelope), "{differing:?}");
    }
}
