//! The `medmaker` binary. See [`medmaker_cli`] for the full description.

use medmaker_cli::{self as cli, Config};
use std::io::{self, Write};

/// Stdout that remembers whether its reader went away, so that `main`
/// can tell `medmaker … | head -1` from a failure worth reporting.
struct Stdout {
    out: io::StdoutLock<'static>,
    closed: bool,
}

impl Stdout {
    fn note<T>(&mut self, r: io::Result<T>) -> io::Result<T> {
        self.closed |= matches!(&r, Err(e) if e.kind() == io::ErrorKind::BrokenPipe);
        r
    }
}

impl Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let r = self.out.write(buf);
        self.note(r)
    }

    fn flush(&mut self) -> io::Result<()> {
        let r = self.out.flush();
        self.note(r)
    }
}

/// No subcommand: answer QUERY, or run the interactive session.
fn run_session(cfg: &Config, out: &mut Stdout) -> Result<i32, String> {
    let med = cli::build_mediator(cfg)?;
    match &cfg.query {
        Some(q) => cli::run_query_in(&med, q, cfg.explain, cfg.lorel, out)?,
        None => cli::repl_in(&med, cfg.lorel, io::stdin().lock(), out)?,
    }
    Ok(0)
}

fn main() {
    let mut out = Stdout {
        out: io::stdout().lock(),
        closed: false,
    };
    let cfg = match cli::parse_args(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        // `--help` is the one "error" that was asked for.
        Err(msg) if msg == cli::USAGE => {
            let _ = out.write_all(msg.as_bytes());
            std::process::exit(0);
        }
        Err(msg) => {
            let _ = writeln!(io::stderr(), "{msg}");
            std::process::exit(2);
        }
    };
    // Each subcommand with the status a runtime error in it exits with.
    type Run = fn(&Config, &mut Stdout) -> Result<i32, String>;
    let (run, on_error): (Run, i32) = match () {
        _ if cfg.check => (cli::run_check, 2),
        _ if cfg.explain_cmd => (cli::run_explain, 1),
        _ if cfg.serve => (cli::run_serve, 1),
        _ if cfg.cache_cmd.is_some() => (cli::run_cache, 1),
        _ if cfg.invalidate => (cli::run_invalidate, 1),
        _ => (run_session, 1),
    };
    let result = run(&cfg, &mut out);
    let _ = out.flush();
    std::process::exit(match result {
        // The reader has what it wanted; that is not an error.
        _ if out.closed => 0,
        Ok(code) => code,
        Err(msg) => {
            let _ = writeln!(io::stderr(), "error: {msg}");
            on_error
        }
    });
}
