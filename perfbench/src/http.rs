//! A minimal HTTP/1.1 client for `sixgen serve`: one request per
//! connection (the server closes every connection after its response),
//! full-body reads, and chunked target streams read chunk by chunk with
//! a timestamp per chunk.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest a single socket read may block before the request counts
/// as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A complete (non-streamed) response.
#[derive(Debug)]
pub struct Response {
    /// Status code, e.g. 200.
    pub status: u16,
    /// The body.
    pub body: Vec<u8>,
}

/// A chunked response read to its end.
#[derive(Debug)]
pub struct Stream {
    /// Status code.
    pub status: u16,
    /// Every chunk's payload, concatenated.
    pub body: Vec<u8>,
    /// When each non-empty chunk had been read completely.
    pub chunk_times: Vec<Instant>,
    /// Whether the terminal zero-length chunk arrived; a stream cut
    /// short (the server truncates a failed job's stream) lacks it.
    pub complete: bool,
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn send(stream: &mut TcpStream, method: &str, target: &str, body: &[u8]) -> std::io::Result<()> {
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    let mut request = Vec::with_capacity(head.len() + body.len());
    request.extend_from_slice(head.as_bytes());
    request.extend_from_slice(body);
    stream.write_all(&request)?;
    stream.flush()
}

fn bad(message: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message.into())
}

/// Reads the status line and headers; returns the status and whether
/// the body is chunked.
fn read_head(reader: &mut impl BufRead) -> std::io::Result<(u16, bool)> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(bad("connection closed before the status line"));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
    let mut chunked = false;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed inside the headers"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            return Ok((status, chunked));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("transfer-encoding")
                && value.trim().eq_ignore_ascii_case("chunked")
            {
                chunked = true;
            }
        }
    }
}

/// Sends one request and reads the whole response (to connection
/// close). Streams go through [`stream`].
pub fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> std::io::Result<Response> {
    let mut stream = connect(addr)?;
    send(&mut stream, method, target, body)?;
    let mut reader = BufReader::new(stream);
    let (status, chunked) = read_head(&mut reader)?;
    if chunked {
        return Err(bad(format!("{target} answered with a chunked stream")));
    }
    let mut body = Vec::new();
    reader.read_to_end(&mut body)?;
    Ok(Response { status, body })
}

/// Sends a GET and reads a chunked stream to its terminal chunk,
/// timestamping each chunk as it completes.
pub fn stream(addr: SocketAddr, target: &str) -> std::io::Result<Stream> {
    let mut stream = connect(addr)?;
    send(&mut stream, "GET", target, &[])?;
    let mut reader = BufReader::new(stream);
    let (status, chunked) = read_head(&mut reader)?;
    if !chunked {
        let mut body = Vec::new();
        reader.read_to_end(&mut body)?;
        return Ok(Stream {
            status,
            body,
            chunk_times: Vec::new(),
            complete: false,
        });
    }
    read_chunks(&mut reader, status)
}

fn read_chunks(reader: &mut impl BufRead, status: u16) -> std::io::Result<Stream> {
    let mut body = Vec::new();
    let mut chunk_times = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            // Cut short: no terminal chunk.
            return Ok(Stream {
                status,
                body,
                chunk_times,
                complete: false,
            });
        }
        let size_text = line.trim_end().split(';').next().unwrap_or("");
        let size = usize::from_str_radix(size_text, 16)
            .map_err(|_| bad(format!("bad chunk size line {line:?}")))?;
        if size == 0 {
            // Trailer section: read up to the blank line.
            loop {
                line.clear();
                if reader.read_line(&mut line)? == 0 || line.trim_end().is_empty() {
                    break;
                }
            }
            return Ok(Stream {
                status,
                body,
                chunk_times,
                complete: true,
            });
        }
        let start = body.len();
        body.resize(start + size, 0);
        if reader.read_exact(&mut body[start..]).is_err() {
            body.truncate(start);
            return Ok(Stream {
                status,
                body,
                chunk_times,
                complete: false,
            });
        }
        let mut crlf = [0u8; 2];
        reader.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(bad("chunk not followed by CRLF"));
        }
        chunk_times.push(Instant::now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_body_is_reassembled_with_one_time_per_chunk() {
        let wire = b"5\r\nhello\r\n7;ext=1\r\n world\n\r\n0\r\n\r\n";
        let stream = read_chunks(&mut &wire[..], 200).unwrap();
        assert_eq!(stream.body, b"hello world\n");
        assert_eq!(stream.chunk_times.len(), 2);
        assert!(stream.complete);
    }

    #[test]
    fn a_stream_without_its_terminal_chunk_is_incomplete() {
        let wire = b"5\r\nhello\r\n";
        let stream = read_chunks(&mut &wire[..], 200).unwrap();
        assert_eq!(stream.body, b"hello");
        assert!(!stream.complete);
        let cut_inside = b"9\r\nhel";
        let stream = read_chunks(&mut &cut_inside[..], 200).unwrap();
        assert!(stream.body.is_empty());
        assert!(!stream.complete);
    }

    #[test]
    fn head_parsing_finds_status_and_chunking() {
        let wire = b"HTTP/1.1 201 Created\r\nTransfer-Encoding: chunked\r\n\r\n";
        assert_eq!(read_head(&mut &wire[..]).unwrap(), (201, true));
        let wire = b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 3\r\n\r\n";
        assert_eq!(read_head(&mut &wire[..]).unwrap(), (503, false));
    }
}
