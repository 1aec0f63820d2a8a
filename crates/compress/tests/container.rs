//! The multi-channel container's own limits: share lengths that the
//! header's `u16` field holds, and decoded shares that must be one
//! page's split.

use xfm_compress::ratio::{pack_page_into, unpack_page_into};
use xfm_compress::{Corpus, Scratch, XDeflate};
use xfm_types::{Error, Result};

fn unpack(container: &[u8]) -> Result<Vec<u8>> {
    let (codec, mut out) = (XDeflate::default(), Vec::new());
    unpack_page_into(&codec, container, &mut Scratch::new(), &mut out)?;
    Ok(out)
}

#[test]
fn share_lengths_are_the_format_limit() {
    let codec = XDeflate::default();
    let mut scratch = Scratch::new();
    let mut out = b"head".to_vec();
    // 65 535 bytes fit one share's u16; one more byte does not.
    let fits = Corpus::RandomBytes.generate(1, usize::from(u16::MAX));
    pack_page_into(&codec, &fits, 1, &mut scratch, &mut out).unwrap();
    assert_eq!(unpack(&out[4..]).unwrap(), fits);
    out.truncate(4);
    let over = Corpus::RandomBytes.generate(1, usize::from(u16::MAX) + 1);
    assert!(pack_page_into(&codec, &over, 1, &mut scratch, &mut out).is_err());
    assert_eq!(out, b"head");
    // Over four DIMMs the same page is four shares that fit.
    pack_page_into(&codec, &over, 4, &mut scratch, &mut out).unwrap();
    assert_eq!(unpack(&out[4..]).unwrap(), over);
}

#[test]
fn share_lengths_off_the_split_are_corrupt() {
    // Two raw shares whose lengths no page splits into.
    let mut container = vec![2, 1, 100, 0, 1, 0, 1];
    container.resize(7 + 2 * 256, 7);
    assert!(matches!(unpack(&container), Err(Error::Corrupt(_))));
}
