#![warn(missing_docs)]
//! R7 unguarded-io: in an I/O-scoped crate every entry point into the
//! file system or the network fires unless its fn names a chaos site.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::net::{TcpListener, TcpStream};

/// Fires: a read no chaos site faults.
pub fn unregistered(path: &str) -> usize {
    fs::read(path).map_or(0, |b| b.len()) // line 11: `fs::read`
}

/// Fires: every way to open a file.
pub fn opens(path: &str) -> bool {
    let a = File::open(path).is_ok(); // line 16
    let b = File::create(path).is_ok(); // line 17
    let c = OpenOptions::new().append(true).open(path).is_ok(); // line 18
    a && b && c
}

/// Fires: both ends of a socket.
pub fn sockets(addr: &str) -> bool {
    let server = TcpListener::bind(addr); // line 24
    let client = TcpStream::connect(addr).is_ok(); // line 25
    client && server.and_then(|l| l.accept()).is_ok() // line 26: `accept`
}

/// Clean: the fn names the chaos site that faults its read.
#[expect(clippy::disallowed_methods, reason = "chaos: cache-read-error")]
pub fn registered(path: &str) -> usize {
    fs::read(path).map_or(0, |b| b.len())
}

/// Clean: a gap that needs no fault site says why.
#[expect(
    clippy::disallowed_methods,
    reason = "unguarded: fixture: mkdir before the registered write"
)]
pub fn setup(dir: &str) -> bool {
    fs::create_dir_all(dir).is_ok()
}

/// Clean: a write through a handle already held is not an entry point
/// (the journal appends this way).
pub fn append(file: &mut File, line: &[u8]) -> bool {
    file.write_all(line).is_ok()
}

/// The clock bans of the root `clippy.toml` still hold here.
pub fn clock() -> bool {
    std::time::Instant::now().elapsed().is_zero() // line 52: twice
}
