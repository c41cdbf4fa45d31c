//! Trace files are input from outside the program: anyone can recompute
//! the FNV-1a checksum, so a crafted file passes the integrity check.
//! `Store::from_bytes` must answer every such file with an error, never
//! a panic or an allocation sized by a forged count.

use state::{Frame, PauseReason, ProgramState, SourceLocation};
use trace::codec::{get_varint, put_varint};
use trace::{Store, MAGIC};

/// Body sections in file order.
const META: usize = 0;
const SNAP_OFF: usize = 1;
const OUT_OFF: usize = 5;
const OUTPUT: usize = 6;

fn valid_file() -> Vec<u8> {
    let mut store = Store::new("t.c", "int main() { return 0; }", 4);
    for line in 1..=6 {
        let frame = Frame::new("main", 0, SourceLocation::new("t.c", line));
        let st = ProgramState::new(frame, vec![], PauseReason::Step);
        store.push(&st, "é;");
    }
    store.set_exit_code(Some(0));
    store.to_bytes()
}

/// Splits a file into its body sections, lets `edit` change them, and
/// reassembles the file with a correct checksum.
fn forge(file: &[u8], edit: impl FnOnce(&mut Vec<Vec<u8>>)) -> Vec<u8> {
    let head = MAGIC.len() + 4;
    let body = &file[head..file.len() - 8];
    let mut sections = Vec::new();
    let mut pos = 0;
    while pos < body.len() {
        let len = get_varint(body, &mut pos).unwrap() as usize;
        sections.push(body[pos..pos + len].to_vec());
        pos += len;
    }
    edit(&mut sections);
    let mut new_body = Vec::new();
    for s in &sections {
        put_varint(&mut new_body, s.len() as u64);
        new_body.extend_from_slice(s);
    }
    let mut out = file[..head].to_vec();
    out.extend_from_slice(&new_body);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in &new_body {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    out.extend_from_slice(&h.to_le_bytes());
    out
}

fn varints(values: &[u64]) -> Vec<u8> {
    let mut col = Vec::new();
    for &v in values {
        put_varint(&mut col, v);
    }
    col
}

#[test]
fn the_builder_reproduces_a_valid_file() {
    let file = valid_file();
    assert_eq!(forge(&file, |_| {}), file);
    assert_eq!(Store::from_bytes(&file).unwrap().len(), 6);
}

#[test]
fn forged_pause_count_is_rejected_before_allocating() {
    let file = forge(&valid_file(), |s| {
        let meta = String::from_utf8(s[META].clone()).unwrap();
        let forged = meta.replace("\"pauses\":6", &format!("\"pauses\":{}", (1u64 << 60) - 1));
        assert_ne!(forged, meta, "the builder found the pause count");
        s[META] = forged.into_bytes();
    });
    let err = Store::from_bytes(&file).unwrap_err();
    assert!(err.contains("cannot hold"), "{err}");
}

#[test]
fn overflowing_offset_deltas_are_rejected() {
    let file = forge(&valid_file(), |s| {
        s[SNAP_OFF] = varints(&[0, u64::MAX, 1, 1, 1, 1]);
    });
    let err = Store::from_bytes(&file).unwrap_err();
    assert!(err.contains("overflows"), "{err}");
}

#[test]
fn snapshot_offsets_past_their_section_are_rejected() {
    let file = forge(&valid_file(), |s| {
        s[SNAP_OFF] = varints(&[0, 1, 1, 1, 1, 1 << 40]);
    });
    let err = Store::from_bytes(&file).unwrap_err();
    assert!(err.contains("snapshot offset"), "{err}");
}

#[test]
fn output_offsets_must_stay_inside_and_on_character_boundaries() {
    let past_end = forge(&valid_file(), |s| {
        let len = s[OUTPUT].len() as u64;
        s[OUT_OFF] = varints(&[0, 0, 0, 0, 0, len + 1]);
    });
    let err = Store::from_bytes(&past_end).unwrap_err();
    assert!(err.contains("output offset"), "{err}");
    // "é" is two bytes: offset 1 lands inside it.
    let split = forge(&valid_file(), |s| {
        s[OUT_OFF] = varints(&[0, 1, 0, 0, 0, 0]);
    });
    let err = Store::from_bytes(&split).unwrap_err();
    assert!(err.contains("splits a character"), "{err}");
}
