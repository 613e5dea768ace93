//! Command-line handling shared by the driver binaries: `--help` prints
//! the usage and exits 0; a bad argument (or a bad `XBOUND_SIM_ENGINE`)
//! prints one line to stderr and exits 2 — never a panic or a backtrace.

use std::str::FromStr;

/// One driver's arguments, consumed flag by flag.
pub struct Args {
    bin: &'static str,
    usage: &'static str,
    rest: std::vec::IntoIter<String>,
}

impl Args {
    /// The process arguments (after the program name) of driver `bin`,
    /// whose `usage` text `--help` prints. Exits 2 right away when
    /// `XBOUND_SIM_ENGINE` names no engine.
    pub fn from_env(bin: &'static str, usage: &'static str) -> Args {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let args = Args {
            bin,
            usage,
            rest: args.into_iter(),
        };
        if let Err(e) = xbound_core::check_sim_engine() {
            args.fail(&e);
        }
        args
    }

    /// The next argument. `--help` / `-h` print the usage and exit 0, so
    /// callers never see them.
    pub fn next_arg(&mut self) -> Option<String> {
        let a = self.rest.next()?;
        if a == "--help" || a == "-h" {
            print!("{}", self.usage);
            std::process::exit(0);
        }
        Some(a)
    }

    /// The value of `flag` (just consumed), parsed; missing or
    /// unparsable values exit 2 naming `what` (e.g. `"N"`, `"PATH"`).
    pub fn value<T: FromStr>(&mut self, flag: &str, what: &str) -> T {
        match self.rest.next() {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| self.fail(&format!("{flag} {what}: cannot parse `{v}`"))),
            None => self.fail(&format!("{flag} needs a value: {flag} {what}")),
        }
    }

    /// Rejects an argument that looks like a flag but is not one.
    pub fn positional(&self, a: String) -> String {
        if a.starts_with('-') {
            self.fail(&format!("unknown option `{a}` (see --help)"));
        }
        a
    }

    /// Prints `msg` as one line to stderr and exits 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}", self.bin);
        std::process::exit(2)
    }

    /// Exits 2 unless every name is a suite benchmark.
    pub fn check_benchmarks(&self, names: &[String]) {
        for n in names {
            if xbound_benchsuite::by_name(n).is_none() {
                self.fail(&format!("unknown benchmark `{n}` (see --help)"));
            }
        }
    }
}
