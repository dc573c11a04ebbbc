//! Committed format fixtures: archives written by earlier builds of `lc`
//! must keep decoding, and today's encoder must still write the v3
//! fixture byte for byte (which pins the chunk payloads).
//!
//! Every fixture holds `obs_info` as `lc gen-data --scale 8192` writes it
//! (64 KiB, 4 chunks), compressed with `TCMS_4 DIFF_4 RZE_4`:
//!
//! * `obs_info.v3.lc`: LCRP v3, written by `lc compress`;
//! * `obs_info.v2.lc`: the same archive rewritten as LCRP v2 (version
//!   byte 2, per-chunk CRCs dropped from each table entry);
//! * `obs_info.lcrs`: a legacy LCRS v2 stream, written by
//!   `lc compress --stream` before it wrote LCRP.

use std::path::Path;

use lc_repro::lc_components::{lookup, parse_pipeline};
use lc_repro::lc_core::archive::{self, DecodeOptions};
use lc_repro::lc_core::checksum::crc32;
use lc_repro::lc_core::DecodeError;
use lc_repro::lc_parallel::Pool;

const PIPELINE: &str = "TCMS_4 DIFF_4 RZE_4";
const PLAIN_LEN: usize = 65_536;
const PLAIN_CRC: u32 = 0xCEFB_C80E;
const FIXTURES: [&str; 3] = ["obs_info.v3.lc", "obs_info.v2.lc", "obs_info.lcrs"];

fn fixture(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn plaintext() -> Vec<u8> {
    let file = lc_repro::lc_data::file_by_name("obs_info").unwrap();
    lc_repro::lc_data::generate(file, lc_repro::lc_data::Scale::denominator(8192))
}

#[test]
fn plaintext_is_pinned() {
    let data = plaintext();
    assert_eq!(data.len(), PLAIN_LEN);
    assert_eq!(crc32(&data), PLAIN_CRC);
}

#[test]
fn every_fixture_decodes_to_the_pinned_plaintext() {
    for threads in [1, 2] {
        let pool = Pool::new(threads);
        for name in FIXTURES {
            let bytes = fixture(name);
            let out = archive::decode(&bytes, lookup, &pool).unwrap();
            assert_eq!(out.len(), PLAIN_LEN, "{name}");
            assert_eq!(crc32(&out), PLAIN_CRC, "{name}");
            let (salvaged, report) =
                archive::salvage(&bytes, lookup, &pool, &DecodeOptions::default()).unwrap();
            assert!(report.is_clean(), "{name}: {report:?}");
            assert_eq!(salvaged, out, "{name}");
        }
    }
}

#[test]
fn v3_fixture_reencodes_byte_for_byte() {
    let pipeline = parse_pipeline(PIPELINE).unwrap();
    let archive = archive::encode(&pipeline, &plaintext(), &Pool::new(2));
    assert!(
        archive == fixture("obs_info.v3.lc"),
        "v3 encoder output moved"
    );
}

#[test]
fn every_fixture_honours_the_size_bound() {
    let limit = PLAIN_LEN as u64 - 1;
    let opts = DecodeOptions {
        max_decoded_bytes: Some(limit),
        cancel: None,
    };
    for name in FIXTURES {
        let err = archive::decode_with(&fixture(name), lookup, &Pool::new(2), &opts).unwrap_err();
        assert_eq!(
            err,
            DecodeError::TooLarge {
                declared: PLAIN_LEN as u64,
                limit
            },
            "{name}"
        );
    }
}

#[test]
fn v2_value_damage_fails_the_whole_output_crc() {
    // v2 has no chunk CRCs: a flipped payload value decodes "cleanly"
    // and only the whole-output CRC, folded from the decoded chunks'
    // CRCs, catches it.
    let pool = Pool::new(2);
    let mut bad = fixture("obs_info.v2.lc");
    let n = bad.len();
    bad[n - 1] ^= 0x01;
    assert!(matches!(
        archive::decode(&bad, lookup, &pool),
        Err(DecodeError::ChecksumMismatch { .. })
    ));
    let (_, report) = archive::salvage(&bad, lookup, &pool, &DecodeOptions::default()).unwrap();
    assert_eq!((report.lost, report.archive_crc_ok), (0, false));
}

#[test]
fn legacy_stream_damage_is_an_error() {
    let pool = Pool::new(2);
    let stream = fixture("obs_info.lcrs");
    let n = stream.len();
    for cut in [0, 3, 5, 10, n / 2, n - 1] {
        assert!(
            archive::decode(&stream[..cut], lookup, &pool).is_err(),
            "cut {cut}"
        );
    }
    // The trailer's CRC-32 (last 4 bytes) is checked against the output.
    // Salvage, lacking per-chunk CRCs, recovers every chunk and flags
    // the mismatch.
    let mut bad = stream.clone();
    bad[n - 1] ^= 0xFF;
    assert!(matches!(
        archive::decode(&bad, lookup, &pool),
        Err(DecodeError::ChecksumMismatch { .. })
    ));
    let (_, report) = archive::salvage(&bad, lookup, &pool, &DecodeOptions::default()).unwrap();
    assert_eq!((report.lost, report.archive_crc_ok), (0, false));
    // So is the trailer's declared length (the u64 before the CRC).
    let mut bad = stream.clone();
    bad[n - 6] ^= 0xFF;
    assert!(archive::decode(&bad, lookup, &pool).is_err());
}
