//! Socket transport: TCP and Unix-domain listeners/connections behind one
//! enum, plus the vectored-write fast path the round broadcast rides on.
//!
//! Addresses are spelled `tcp:HOST:PORT` or `unix:/path/to.sock`; a bare
//! `HOST:PORT` means TCP (`tcp:127.0.0.1:0` is loopback on an ephemeral
//! port).

use std::fmt;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// A parsed transport address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetAddr {
    /// TCP `host:port` (port `0` = ephemeral; resolve via
    /// [`Listener::local_addr`] after binding).
    Tcp(String),
    /// Unix-domain socket path.
    Unix(PathBuf),
}

impl NetAddr {
    /// Parses `tcp:HOST:PORT`, `unix:/path`, or bare `HOST:PORT` (TCP).
    pub fn parse(s: &str) -> NetAddr {
        if let Some(path) = s.strip_prefix("unix:") {
            NetAddr::Unix(PathBuf::from(path))
        } else if let Some(hp) = s.strip_prefix("tcp:") {
            NetAddr::Tcp(hp.to_string())
        } else {
            NetAddr::Tcp(s.to_string())
        }
    }
}

impl fmt::Display for NetAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetAddr::Tcp(hp) => write!(f, "tcp:{hp}"),
            NetAddr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// A bound listening socket.
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener (unlinks a stale socket file on bind).
    Unix(UnixListener),
}

impl Listener {
    /// Binds `addr`. For Unix sockets a stale file at the path is
    /// unlinked first (crashed predecessor).
    ///
    /// # Errors
    ///
    /// Propagates the OS bind failure.
    pub fn bind(addr: &NetAddr) -> io::Result<Listener> {
        match addr {
            NetAddr::Tcp(hp) => Ok(Listener::Tcp(TcpListener::bind(hp.as_str())?)),
            NetAddr::Unix(path) => {
                let _ = std::fs::remove_file(path);
                Ok(Listener::Unix(UnixListener::bind(path)?))
            }
        }
    }

    /// The resolved address — for TCP this carries the real port even
    /// when bound ephemeral, so clients can dial it.
    ///
    /// # Errors
    ///
    /// Propagates the OS query failure.
    pub fn local_addr(&self) -> io::Result<NetAddr> {
        match self {
            Listener::Tcp(l) => Ok(NetAddr::Tcp(l.local_addr()?.to_string())),
            Listener::Unix(l) => {
                let addr = l.local_addr()?;
                let path = addr
                    .as_pathname()
                    .ok_or_else(|| io::Error::other("unnamed unix socket"))?;
                Ok(NetAddr::Unix(path.to_path_buf()))
            }
        }
    }

    /// Blocks for the next inbound connection.
    ///
    /// # Errors
    ///
    /// Propagates the OS accept failure.
    pub fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                Ok(Conn::Unix(s))
            }
        }
    }
}

/// One established connection (either family), usable from both ends.
pub enum Conn {
    /// TCP stream (Nagle disabled — frames are latency-bound).
    Tcp(TcpStream),
    /// Unix-domain stream.
    Unix(UnixStream),
}

impl Conn {
    /// Dials `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the OS connect failure.
    pub fn connect(addr: &NetAddr) -> io::Result<Conn> {
        match addr {
            NetAddr::Tcp(hp) => {
                let s = TcpStream::connect(hp.as_str())?;
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
            NetAddr::Unix(path) => Ok(Conn::Unix(UnixStream::connect(path)?)),
        }
    }

    /// Clones the descriptor so reader and writer can live on different
    /// threads.
    ///
    /// # Errors
    ///
    /// Propagates the OS dup failure.
    pub fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => Ok(Conn::Tcp(s.try_clone()?)),
            Conn::Unix(s) => Ok(Conn::Unix(s.try_clone()?)),
        }
    }

    /// Bounds how long a blocking read may wait (`None` = forever).
    ///
    /// # Errors
    ///
    /// Propagates the OS setsockopt failure.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(dur),
            Conn::Unix(s) => s.set_read_timeout(dur),
        }
    }

    /// Half- or full-closes the connection; an error here is ignorable
    /// (the peer may already be gone).
    pub fn shutdown(&self, how: Shutdown) {
        let _ = match self {
            Conn::Tcp(s) => s.shutdown(how),
            Conn::Unix(s) => s.shutdown(how),
        };
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write_vectored(bufs),
            Conn::Unix(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Writes one frame as `header‖payload‖trailer` with vectored I/O — the
/// broadcast fast path. The payload is serialized (and its checksum
/// sealed) once per round; per client this is a single `writev` syscall
/// in the common case, never a payload copy.
///
/// # Errors
///
/// Propagates socket write failures; a peer that accepts zero bytes
/// surfaces as [`io::ErrorKind::WriteZero`].
pub fn write_frame<W: Write>(
    w: &mut W,
    header: &[u8],
    payload: &[u8],
    trailer: &[u8],
) -> io::Result<()> {
    let total = header.len() + payload.len() + trailer.len();
    let mut written = 0usize;
    while written < total {
        let mut bufs = [IoSlice::new(&[]), IoSlice::new(&[]), IoSlice::new(&[])];
        let mut n = 0usize;
        let mut skip = written;
        for part in [header, payload, trailer] {
            if skip >= part.len() {
                skip -= part.len();
                continue;
            }
            bufs[n] = IoSlice::new(&part[skip..]);
            skip = 0;
            n += 1;
        }
        match w.write_vectored(&bufs[..n]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(k) => written += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_parse_covers_all_spellings() {
        assert_eq!(
            NetAddr::parse("tcp:127.0.0.1:9000"),
            NetAddr::Tcp("127.0.0.1:9000".into())
        );
        assert_eq!(
            NetAddr::parse("unix:/tmp/fuiov.sock"),
            NetAddr::Unix(PathBuf::from("/tmp/fuiov.sock"))
        );
        assert_eq!(
            NetAddr::parse("127.0.0.1:9000"),
            NetAddr::Tcp("127.0.0.1:9000".into())
        );
        assert_eq!(NetAddr::parse("tcp:[::1]:80").to_string(), "tcp:[::1]:80");
        assert_eq!(
            NetAddr::parse("unix:/x/y.sock").to_string(),
            "unix:/x/y.sock"
        );
    }

    #[test]
    fn write_frame_handles_partial_sinks() {
        // A sink that accepts at most 3 bytes per call exercises the
        // resume-at-offset slice rebuilding.
        struct Dribble(Vec<u8>);
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(3);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let (h, p, t) = (
            b"HEADERXX".as_slice(),
            b"payload-bytes".as_slice(),
            b"TRAILERY".as_slice(),
        );
        let mut sink = Dribble(Vec::new());
        write_frame(&mut sink, h, p, t).unwrap();
        let mut want = Vec::new();
        want.extend_from_slice(h);
        want.extend_from_slice(p);
        want.extend_from_slice(t);
        assert_eq!(sink.0, want);
    }

    #[test]
    fn tcp_loopback_round_trips_a_frame() {
        let listener = Listener::bind(&NetAddr::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let mut buf = [0u8; 5];
            conn.read_exact(&mut buf).unwrap();
            buf
        });
        let mut c = Conn::connect(&addr).unwrap();
        c.write_all(b"hello").unwrap();
        assert_eq!(&h.join().unwrap(), b"hello");
    }

    #[test]
    fn unix_loopback_round_trips_a_frame() {
        let dir = std::env::temp_dir().join(format!("fuiov-net-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.sock");
        let listener = Listener::bind(&NetAddr::Unix(path.clone())).unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let mut buf = [0u8; 5];
            conn.read_exact(&mut buf).unwrap();
            buf
        });
        let mut c = Conn::connect(&addr).unwrap();
        c.write_all(b"world").unwrap();
        assert_eq!(&h.join().unwrap(), b"world");
        let _ = std::fs::remove_file(&path);
        // Re-binding the same path must succeed (stale-file unlink).
        let _relisten = Listener::bind(&NetAddr::Unix(path)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
