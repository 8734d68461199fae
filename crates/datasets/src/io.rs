//! Hitlist file I/O.
//!
//! Public IPv6 hitlists (Gasser et al.'s collection, Rapid7 exports) are
//! one-address-per-line text files; large intermediate artifacts are better
//! stored in a fixed-width binary form. Both formats are supported, with
//! `#` comments and blank-line tolerance on the text side.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use sixgen_addr::NybbleAddr;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;

/// Magic header of the binary hitlist format ("6GENHL1\n").
const MAGIC: &[u8; 8] = b"6GENHL1\n";

/// Writes addresses as text, one per line, in RFC 5952 form.
pub fn write_hitlist<W: Write>(mut writer: W, addrs: &[NybbleAddr]) -> io::Result<()> {
    for addr in addrs {
        writeln!(writer, "{addr}")?;
    }
    Ok(())
}

/// Writes a text hitlist file.
pub fn write_hitlist_file(path: impl AsRef<Path>, addrs: &[NybbleAddr]) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut buffered = io::BufWriter::new(file);
    write_hitlist(&mut buffered, addrs)?;
    buffered.flush()
}

/// Reads a text hitlist: one address per line; blank lines and lines
/// starting with `#` are skipped. Malformed lines are an error carrying
/// the 1-based line number.
pub fn read_hitlist<R: Read>(reader: R) -> io::Result<Vec<NybbleAddr>> {
    let mut out = Vec::new();
    for (lineno, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let text = line.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        let addr: NybbleAddr = text.parse().map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: {e}", lineno + 1),
            )
        })?;
        out.push(addr);
    }
    Ok(out)
}

/// Reads a text hitlist file.
pub fn read_hitlist_file(path: impl AsRef<Path>) -> io::Result<Vec<NybbleAddr>> {
    read_hitlist(std::fs::File::open(path)?)
}

/// Encodes addresses in the compact binary format: an 8-byte magic, a
/// little-endian u64 count, then 16 network-order bytes per address.
pub fn encode_hitlist_binary(addrs: &[NybbleAddr]) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + addrs.len() * 16);
    buf.put_slice(MAGIC);
    buf.put_u64_le(addrs.len() as u64);
    for addr in addrs {
        buf.put_u128(addr.bits());
    }
    buf.freeze()
}

/// Decodes the binary format produced by [`encode_hitlist_binary`].
pub fn decode_hitlist_binary(mut data: Bytes) -> io::Result<Vec<NybbleAddr>> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_owned());
    if data.remaining() < MAGIC.len() + 8 {
        return Err(bad("truncated header"));
    }
    let mut magic = [0u8; 8];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(bad("bad magic"));
    }
    // The count is untrusted: check it against the bytes actually present
    // before it sizes an allocation.
    let count = usize::try_from(data.get_u64_le()).map_err(|_| bad("length mismatch"))?;
    if count.checked_mul(16) != Some(data.remaining()) {
        return Err(bad("length mismatch"));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(NybbleAddr::from_bits(data.get_u128()));
    }
    Ok(out)
}

/// Writes a binary hitlist file.
pub fn write_hitlist_binary_file(path: impl AsRef<Path>, addrs: &[NybbleAddr]) -> io::Result<()> {
    std::fs::write(path, encode_hitlist_binary(addrs))
}

/// Reads a binary hitlist file.
pub fn read_hitlist_binary_file(path: impl AsRef<Path>) -> io::Result<Vec<NybbleAddr>> {
    decode_hitlist_binary(Bytes::from(std::fs::read(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> Vec<NybbleAddr> {
        ["2001:db8::1", "::", "fe80::dead:beef", "2600:9000:a:11a5::42"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect()
    }

    #[test]
    fn text_roundtrip() {
        let mut buf = Vec::new();
        write_hitlist(&mut buf, &addrs()).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("2001:db8::1\n"));
        assert_eq!(read_hitlist(&buf[..]).unwrap(), addrs());
    }

    #[test]
    fn text_skips_comments_and_blanks() {
        let text = "# a comment\n\n2001:db8::1\n   \n# another\n::2\n";
        let got = read_hitlist(text.as_bytes()).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], "2001:db8::1".parse().unwrap());
    }

    #[test]
    fn text_reports_malformed_line_number() {
        let text = "2001:db8::1\nnot-an-address\n";
        let err = read_hitlist(text.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn binary_roundtrip() {
        let encoded = encode_hitlist_binary(&addrs());
        assert_eq!(encoded.len(), 16 + 4 * 16);
        assert_eq!(decode_hitlist_binary(encoded).unwrap(), addrs());
        // Empty list round-trips too.
        let empty = encode_hitlist_binary(&[]);
        assert_eq!(decode_hitlist_binary(empty).unwrap(), Vec::new());
    }

    #[test]
    fn binary_rejects_corruption() {
        let encoded = encode_hitlist_binary(&addrs());
        // Truncated.
        let truncated = encoded.slice(0..encoded.len() - 1);
        assert!(decode_hitlist_binary(truncated).is_err());
        // Bad magic.
        let mut bad = BytesMut::from(&encoded[..]);
        bad[0] ^= 0xFF;
        assert!(decode_hitlist_binary(bad.freeze()).is_err());
        // Too short for a header.
        assert!(decode_hitlist_binary(Bytes::from_static(b"xx")).is_err());
        // A forged count whose byte length overflows is a typed error, not
        // an overflow or a capacity panic.
        for count in [1u64 << 60, u64::MAX] {
            let mut forged = BytesMut::from(&MAGIC[..]);
            forged.put_u64_le(count);
            let err = decode_hitlist_binary(forged.freeze()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "count {count}");
        }
    }

    #[test]
    fn file_roundtrips() {
        let dir = std::env::temp_dir().join(format!("sixgen-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let text_path = dir.join("hits.txt");
        let bin_path = dir.join("hits.bin");
        write_hitlist_file(&text_path, &addrs()).unwrap();
        write_hitlist_binary_file(&bin_path, &addrs()).unwrap();
        assert_eq!(read_hitlist_file(&text_path).unwrap(), addrs());
        assert_eq!(read_hitlist_binary_file(&bin_path).unwrap(), addrs());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
