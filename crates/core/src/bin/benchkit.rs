//! `benchkit` — the command-line entry point.
//!
//! See `benchkit help` (or `benchkit::cli::USAGE`) for the grammar; all
//! logic lives in `benchkit::cli` where it is unit-tested. This is the one
//! place the process environment is read: once, into a `cli::Env`.

use std::io::{self, ErrorKind, Write};

/// Standard output that remembers whether its reader went away, so a
/// closed stdout (`benchkit … | head`) ends the output quietly while a
/// broken pipe on any other writer (a daemon connection) stays an error.
struct Stdout {
    inner: io::Stdout,
    closed: bool,
}

impl Stdout {
    fn note<T>(&mut self, result: io::Result<T>) -> io::Result<T> {
        self.closed |= matches!(&result, Err(e) if e.kind() == ErrorKind::BrokenPipe);
        result
    }
}

impl Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let result = self.inner.write(buf);
        self.note(result)
    }

    fn flush(&mut self) -> io::Result<()> {
        let result = self.inner.flush();
        self.note(result)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A variable whose name or value is not UTF-8 reads as unset.
    let vars = std::env::vars_os()
        .filter_map(|(k, v)| Some((k.into_string().ok()?, v.into_string().ok()?)));
    let env = benchkit::cli::Env::from_vars(vars);
    let cmd = match benchkit::cli::parse(&args, &env) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", benchkit::cli::USAGE);
            std::process::exit(2);
        }
    };
    let mut stdout = Stdout {
        inner: io::stdout(),
        closed: false,
    };
    if let Err(e) = benchkit::cli::execute(cmd, &env, &mut stdout) {
        let stdout_closed = stdout.closed
            && e.downcast_ref::<io::Error>()
                .is_some_and(|e| e.kind() == ErrorKind::BrokenPipe);
        if !stdout_closed {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
