//! The host description every `--json` file carries, so that runs from
//! different machines or toolchains are never compared.

use std::process::Command;

use parsecs_bench::json::Obj;

use crate::parse::Value;

/// The fields two runs must share to be comparable.
pub const FINGERPRINT: [&str; 4] = ["nproc", "cpu_model", "mem_total_kb", "rustc"];

/// Environment variables that would change `SimConfig` defaults; recorded
/// although every workload pins the fields they set.
const PINNED_ENV: [&str; 2] = ["PARSECS_VALIDATE", "PARSECS_THREADS"];

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn rustc_version() -> Option<String> {
    let out = Command::new("rustc").arg("--version").output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The host as a JSON object.
pub fn describe() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mem_kb = proc_field("/proc/meminfo", "MemTotal")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<u64>().ok())
        .unwrap_or(0);
    let env = PINNED_ENV
        .iter()
        .fold(Obj::new(), |obj, var| {
            obj.opt_str(var, std::env::var(var).ok().as_deref())
        })
        .build();
    Obj::new()
        .field("nproc", nproc)
        .str(
            "cpu_model",
            &proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
        )
        .field("mem_total_kb", mem_kb)
        .str(
            "rustc",
            &rustc_version().unwrap_or_else(|| "unknown".into()),
        )
        .field("env", env)
        .str(
            "env_note",
            "ignored: every workload sets validate and threads explicitly",
        )
        .build()
}

/// The first fingerprint field on which two host descriptions differ.
pub fn mismatch(a: &Value, b: &Value) -> Option<&'static str> {
    FINGERPRINT.into_iter().find(|key| a.get(key) != b.get(key))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describes_the_fingerprint_and_pinned_environment() {
        let host = crate::parse::parse(&describe()).unwrap();
        for key in FINGERPRINT {
            assert!(host.get(key).is_some(), "{key} missing");
        }
        for var in PINNED_ENV {
            assert!(host.get("env").unwrap().get(var).is_some(), "{var} missing");
        }
        assert_eq!(mismatch(&host, &host), None);
        let other = crate::parse::parse(r#"{"nproc": 999}"#).unwrap();
        assert_eq!(mismatch(&host, &other), Some("nproc"));
    }
}
