//! The `medmaker` binary. See [`medmaker_cli`] for the full description.

use medmaker_cli::{self as cli, Command, Config};
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
        Some(q) => cli::run_query(&med, q, cfg.lorel, out)?,
        None => cli::repl(&med, cfg.lorel, io::stdin().lock(), out)?,
    }
    Ok(0)
}

/// `--help`: the usage text on stdout, and success.
fn print_usage(_: &Config, out: &mut Stdout) -> Result<i32, String> {
    out.write_all(cli::USAGE.as_bytes())
        .map_err(|e| e.to_string())?;
    Ok(0)
}

fn main() {
    let mut out = Stdout {
        out: io::stdout().lock(),
        closed: false,
    };
    let cfg = match cli::parse_args(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(msg) => {
            let _ = writeln!(io::stderr(), "{msg}");
            std::process::exit(2);
        }
    };
    // Each command with the status a runtime error in it exits with.
    type Run = fn(&Config, &mut Stdout) -> Result<i32, String>;
    let (run, on_error): (Run, i32) = match cfg.command {
        Command::Session => (run_session, 1),
        Command::Check => (cli::run_check, 2),
        Command::Explain => (cli::run_explain, 1),
        Command::Serve => (cli::run_serve, 1),
        Command::Cache(_) => (cli::run_cache, 1),
        Command::Invalidate => (cli::run_invalidate, 1),
        Command::Help => (print_usage, 1),
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
