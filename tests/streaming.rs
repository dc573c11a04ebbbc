//! Windowed-writer integration tests: `archive::encode_windowed` (what
//! `lc compress --stream` runs) must write exactly the bytes of the
//! in-memory `archive::encode` under arbitrary reader chunking and window
//! boundaries, and must refuse a reader whose length is not the declared
//! one.

use std::io::Cursor;

use proptest::prelude::*;

use lc_repro::lc_components::{lookup, parse_pipeline};
use lc_repro::lc_core::archive::{self, WINDOW_CHUNKS};
use lc_repro::lc_core::CHUNK_SIZE;
use lc_repro::lc_parallel::Pool;

/// A reader that yields at most `max` bytes per read call, to exercise
/// short reads.
struct Dribble<'a> {
    data: &'a [u8],
    pos: usize,
    max: usize,
}

impl std::io::Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.max).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn windowed(data: &[u8], declared: u64, read_size: usize) -> std::io::Result<Vec<u8>> {
    let pipeline = parse_pipeline("DBEFS_4 DIFF_4 RZE_4").unwrap();
    let mut reader = Dribble {
        data,
        pos: 0,
        max: read_size.max(1),
    };
    let mut out = Cursor::new(Vec::new());
    archive::encode_windowed(&pipeline, &mut reader, declared, &mut out, &Pool::new(4))?;
    Ok(out.into_inner())
}

/// Stream `data` through the windowed writer and require the in-memory
/// encoder's bytes, which must decode back to `data`.
fn stream_roundtrip(data: &[u8], read_size: usize) -> Vec<u8> {
    let streamed = windowed(data, data.len() as u64, read_size).unwrap();
    let pipeline = parse_pipeline("DBEFS_4 DIFF_4 RZE_4").unwrap();
    let pool = Pool::new(4);
    assert!(streamed == archive::encode(&pipeline, data, &pool));
    assert_eq!(archive::decode(&streamed, lookup, &pool).unwrap(), data);
    streamed
}

#[test]
fn short_reads_do_not_change_the_output() {
    let data: Vec<u8> = (0..CHUNK_SIZE * 5 + 77).map(|i| (i / 32) as u8).collect();
    let a = stream_roundtrip(&data, usize::MAX);
    let b = stream_roundtrip(&data, 1000);
    let c = stream_roundtrip(&data, 7);
    assert_eq!(a, b);
    assert_eq!(b, c);
}

#[test]
fn window_boundaries() {
    let window = WINDOW_CHUNKS * CHUNK_SIZE;
    for len in [window - 1, window, window + 1, window * 2 + CHUNK_SIZE / 2] {
        let data: Vec<u8> = (0..len).map(|i| (i % 97) as u8).collect();
        stream_roundtrip(&data, usize::MAX);
    }
}

#[test]
fn streamed_sp_files_roundtrip() {
    for name in ["obs_temp", "msg_sweep3d", "num_plasma"] {
        let file = lc_repro::lc_data::file_by_name(name).unwrap();
        let data = lc_repro::lc_data::generate(file, lc_repro::lc_data::Scale::tiny());
        stream_roundtrip(&data, 4096);
    }
}

#[test]
fn reader_length_must_match_the_declared_length() {
    let window = WINDOW_CHUNKS * CHUNK_SIZE;
    for len in [1, CHUNK_SIZE * 3 + 5, window, window + 7] {
        let data: Vec<u8> = (0..len).map(|i| (i % 89) as u8).collect();
        // The reader ends early: more was declared than it yields.
        let short = windowed(&data, len as u64 + 1, 1000).unwrap_err();
        assert_eq!(short.kind(), std::io::ErrorKind::UnexpectedEof, "len {len}");
        // The reader runs long: it yields more than was declared.
        let long = windowed(&data, len as u64 - 1, 1000).unwrap_err();
        assert_eq!(long.kind(), std::io::ErrorKind::InvalidData, "len {len}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arbitrary_data_and_read_sizes(
        data in proptest::collection::vec(any::<u8>(), 0..100_000),
        read_size in 1usize..70_000,
    ) {
        stream_roundtrip(&data, read_size);
    }
}
