#!/usr/bin/env python3
"""Run the hand-written mutant catalogue against the workspace's tests.

Usage: python3 scripts/mutants.py [NAME ...]   (no NAME runs every entry)

Each catalogue entry names a file, an exact text that occurs once in it,
the text that replaces it and the plausible bug that replacement models.
The script copies the working tree (tracked and untracked, not ignored
files) into a fresh directory under the system temp directory (set
TMPDIR to move it), checks that the unmutated copy builds and passes,
then for each entry applies the replacement, runs `cargo test -q
--workspace` (every crate's unit and integration tests, the root
package's and the doctests) with a timeout and restores the file. It
prints one line per entry:

* killed     - a test failed;
* survived   - every test passed: the catalogue names a bug no test sees;
* timed out  - the run exceeded the timeout;
* unbuildable - the mutant does not compile (fix the entry);
* stale      - the old text does not occur exactly once (fix the entry).

Exit status 0 when every entry is killed, 1 otherwise. A full run
builds the test binaries once and then rebuilds the mutated crate for
each entry; with every entry killed it takes about four minutes on a
2-CPU host (a killed entry stops at the first failing test binary).
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 600
TEST = ["cargo", "test", "-q", "--workspace"]

CATALOGUE = [
    {
        "name": "stall-cause-remote-as-local",
        "file": "crates/core/src/sim.rs",
        "old": "    if remote_reg {\n        StallCause::RemoteRegister\n",
        "new": "    if remote_reg {\n        StallCause::Local\n",
        "reason": "a stall on a remote register source is filed as a local one",
    },
    {
        "name": "fetch-computable-strict",
        "file": "crates/core/src/drain.rs",
        "old": "SourceKind::Local { producer } => u64::from(complete[producer]) <= fetch_cycle,",
        "new": "SourceKind::Local { producer } => u64::from(complete[producer]) < fetch_cycle,",
        "reason": "a local producer completing on the fetch cycle is not yet "
        "usable, so the control instruction stalls",
    },
    {
        "name": "walk-word-offset",
        "file": "crates/core/src/schedule.rs",
        "old": "let idx = slot * 64 + word.trailing_zeros() as usize;",
        "new": "let idx = slot + word.trailing_zeros() as usize;",
        "reason": "the walk forgets to scale the word index, so every core "
        "past the first 64 steps as the wrong core",
    },
    {
        "name": "walk-keeps-leavers",
        "file": "crates/core/src/schedule.rs",
        "old": "            if !w.step(idx, schedule) {\n"
        "                schedule.acting.remove(idx);\n"
        "            }\n",
        "new": "            w.step(idx, schedule);\n",
        "reason": "a core that goes idle keeps its bit and is stepped every "
        "cycle",
    },
    {
        "name": "due-wake-not-cleared",
        "file": "crates/core/src/schedule.rs",
        "old": "        w.chip.wake_at[idx] = NO_WAKE;\n"
        "        schedule.acting.insert(idx);\n",
        "new": "        schedule.acting.insert(idx);\n",
        "reason": "a due wake-up joins the acting set but leaves wake_at set, "
        "so a later wake-up of that core is dropped",
    },
    {
        "name": "round-robin-one-late",
        "file": "crates/core/src/placement.rs",
        "old": ".map(|k| CoreId(k % chip.cores))",
        "new": ".map(|k| CoreId((k + 1) % chip.cores))",
        "reason": "round robin starts one core late",
    },
    {
        "name": "queue-push-at-head",
        "file": "crates/core/src/chip.rs",
        "old": """        self.queue_next[sid as usize] = NO_SECTION;
        if self.queue_tail[idx] == NO_SECTION {
            self.queue_head[idx] = sid;
        } else {
            self.queue_next[self.queue_tail[idx] as usize] = sid;
        }
        self.queue_tail[idx] = sid;
""",
        "new": """        self.queue_next[sid as usize] = self.queue_head[idx];
        if self.queue_tail[idx] == NO_SECTION {
            self.queue_tail[idx] = sid;
        }
        self.queue_head[idx] = sid;
""",
        "reason": "ready queues pop the newest section first",
    },
    {
        "name": "request-latency-hop-twice",
        "file": "crates/core/src/drain.rs",
        "old": "network.latency(consumer, producer) + self.config.per_section_hop * gap",
        "new": "network.latency(consumer, producer) + 2 * self.config.per_section_hop * gap",
        "reason": "a renaming request charges each section it passes twice",
    },
    {
        "name": "request-latency-no-hop",
        "file": "crates/core/src/drain.rs",
        "old": "network.latency(consumer, producer) + self.config.per_section_hop * gap",
        "new": "network.latency(consumer, producer) + 0 * gap",
        "reason": "a renaming request passes the sections between consumer and "
        "producer for free",
    },
    {
        "name": "fetch-overwrites-waited",
        "file": "crates/core/src/drain.rs",
        "old": """        let entry = self.complete[seq];
        match WaitPool::cell_of(entry) {
            Some(cell) => {
                debug_assert_eq!(self.waits.cells[cell].fetch, UNKNOWN, "fetched once");
                self.waits.cells[cell].fetch = stored;
            }
            None => {
                debug_assert_eq!(entry, UNKNOWN, "fetched once");
                self.complete[seq] = INCOMPLETE | stored;
            }
        }
""",
        "new": "        self.complete[seq] = INCOMPLETE | stored;\n",
        "reason": "the fetch of a producer that consumers already wait on "
        "overwrites its wait-cell entry, losing the waiters",
    },
    {
        "name": "completion-skips-wake-walk",
        "file": "crates/core/src/drain.rs",
        "old": "        if tagged & WAITED != 0 {\n"
        "            self.waits\n"
        "                .release((tagged & PAYLOAD) as usize, &mut self.queue);\n"
        "        }\n",
        "new": "",
        "reason": "a completing producer neither wakes its waiters nor frees "
        "its wait cell",
    },
    {
        "name": "reused-cell-keeps-old-head",
        "file": "crates/core/src/drain.rs",
        "old": "            self.cells[index] = cell;\n",
        "new": "            self.cells[index].fetch = cell.fetch;\n",
        "reason": "a wait cell taken from the free list keeps its free-list "
        "link as its first waiter",
    },
    {
        "name": "estimator-fills-past-capacity",
        "file": "crates/core/src/placement.rs",
        "old": ".filter(|c| hosted[*c] < capacity)",
        "new": ".filter(|c| hosted[*c] <= capacity)",
        "reason": "the finish-time estimator counts a full core as having "
        "room, so it places past capacity while another core is free",
    },
    {
        "name": "dep-order-check-skipped",
        "file": "crates/check/src/validate.rs",
        "old": "            if producer >= seq {\n"
        "                col.push(InvariantViolation::DependenceCycle { seq, dep, producer });\n"
        "                continue;\n"
        "            }\n",
        "new": "",
        "reason": "the validator's dependence pass checks no producer "
        "order, so a producer at or after its consumer goes unreported",
    },
    {
        "name": "location-check-memory-writer-stale",
        "file": "crates/check/src/locations.rs",
        "old": "                    self.mem_writer.insert(addr, writer);\n",
        "new": "                    let _ = addr;\n",
        "reason": "the location check never updates its memory last-writer "
        "table, so every renamed memory read looks like an initial one",
    },
    {
        "name": "location-check-fork-copy-as-remote",
        "file": "crates/check/src/locations.rs",
        "old": "            } else if self.created && matches!(loc, Location::Reg(r) if r.is_fork_copied()) {\n"
        "                SourceKind::ForkCopy\n",
        "new": "            } else if self.created && matches!(loc, Location::Reg(r) if r.is_fork_copied()) {\n"
        "                SourceKind::Remote { producer: writer.0 as usize }\n",
        "reason": "the location check expects a fork-copied register read "
        "in a created section to be a remote dependence",
    },
    {
        "name": "dep-remote-tag-ignored",
        "file": "crates/trace/src/arena.rs",
        "old": "            word => SourceKind::Remote {\n",
        "new": "            word => SourceKind::Local {\n",
        "reason": "a dependence word ignores its remote tag, so every "
        "dependence decodes as local and no renaming request is sent",
    },
    {
        "name": "dep-sentinels-swapped",
        "file": "crates/trace/src/arena.rs",
        "old": "            FORK_COPY => SourceKind::ForkCopy,\n"
        "            INITIAL_REG => SourceKind::InitialRegister,\n",
        "new": "            FORK_COPY => SourceKind::InitialRegister,\n"
        "            INITIAL_REG => SourceKind::ForkCopy,\n",
        "reason": "the fork-copy and initial-register words decode as each "
        "other",
    },
    {
        "name": "entry-counts-memory-reads",
        "file": "crates/trace/src/arena.rs",
        "old": "            step.reads.iter().filter(|loc| !loc.is_mem()).count(),\n",
        "new": "            step.reads.len(),\n",
        "reason": "the sectioner fills an instruction's register-class count "
        "from its step's total read count, memory words included",
    },
    {
        "name": "push-record-overwrites-entry",
        "file": "crates/trace/src/arena.rs",
        "old": "        if self.has_insn(ip) {\n",
        "new": "        if false {\n",
        "reason": "the record-level builder overwrites an instruction's entry "
        "with each record's facts instead of refusing a disagreeing record",
    },
    {
        "name": "column-shape-skips-ip-entry",
        "file": "crates/check/src/validate.rs",
        "old": "            .is_none_or(|entry| *entry == InsnEntry::UNSET)\n",
        "new": "            .is_none()\n",
        "reason": "the validator accepts a record whose ip names an unset "
        "entry of the instruction table",
    },
    {
        "name": "location-check-ignores-kind",
        "file": "crates/check/src/locations.rs",
        "old": "                entry.kind() == step.kind,\n",
        "new": "                true,\n",
        "reason": "the location check never compares a step's kind with its "
        "instruction's entry, so a table set from a different step passes",
    },
    {
        "name": "stage-row-stores-not-memory",
        "file": "crates/core/src/timing.rs",
        "old": "let mem = entry.is_load() || entry.is_store();",
        "new": "let mem = entry.is_load();",
        "reason": "a stage-table row of a store that loads nothing has no "
        "address-rename or memory-access cycle",
    },
    {
        "name": "noc-latency-charged-at-now",
        "file": "crates/noc/src/network.rs",
        "old": "                self.stats.record_delivery(item.arrives_at, &item.envelope);\n",
        "new": "                self.stats.record_delivery(now, &item.envelope);\n",
        "reason": "with unlimited ejection, a backlog delivered late is "
        "charged the latency up to the delivering call, not its arrival",
    },
    {
        "name": "unresolved-row-scan-skipped",
        "file": "crates/core/src/timing.rs",
        "old": "        if unresolved {\n            return None;\n        }\n",
        "new": "",
        "reason": "a recording run that leaves an instruction unresolved "
        "reports sentinel cycles in its stage table instead of failing",
    },
    {
        "name": "cell-of-wrong-tag-bit",
        "file": "crates/core/src/drain.rs",
        "old": "(entry & WAITED != 0 && entry != UNKNOWN)",
        "new": "(entry & INCOMPLETE != 0 && entry != UNKNOWN)",
        "reason": "a fetched producer that nobody waits on reads as naming a "
        "wait cell, its fetch cycle taken for a cell index",
    },
    {
        "name": "cycle-domain-never-fires",
        "file": "crates/core/src/drain.rs",
        "old": "    if value < limit {\n",
        "new": "    if true {\n",
        "reason": "a cycle past 2^30 is truncated into the 30-bit payload "
        "instead of refusing the run",
    },
    {
        "name": "cell-limit-is-cycle-limit",
        "file": "crates/core/src/drain.rs",
        "old": "const CELL_LIMIT: u64 = CYCLE_LIMIT - 1;",
        "new": "const CELL_LIMIT: u64 = CYCLE_LIMIT;",
        "reason": "the last cell index of the 30-bit payload is handed out, "
        "and its waited entry is the never-fetched sentinel",
    },
    {
        "name": "latency-domain-unchecked",
        "file": "crates/core/src/config.rs",
        "old": "if latency.is_none_or(|cycles| cycles >= CYCLE_LIMIT) {",
        "new": "if latency.is_none() {",
        "reason": "validate accepts a latency that alone carries a cycle "
        "past the domain",
    },
    {
        "name": "convergence-guard-ignores-latencies",
        "file": "crates/core/src/sim.rs",
        "old": "let allowance = 200u64.saturating_add(self.config.longest_charge(sections.len()));",
        "new": "let allowance = 200u64;",
        "reason": "the convergence guard allows every instruction 200 cycles "
        "whatever the configured latencies, so a long valid NoC latency is "
        "refused as a divergence",
    },
    {
        "name": "finish-keeps-reservation",
        "file": "crates/trace/src/stream.rs",
        "old": "        self.arena.set_outputs(outputs);\n"
        "        self.arena.shrink_to_fit();\n",
        "new": "        self.arena.set_outputs(outputs);\n",
        "reason": "a finished arena keeps the whole run's up-front "
        "reservation, so its footprint counts untouched capacity",
    },
    {
        "name": "lone-park-never-requeued",
        "file": "crates/core/src/sim.rs",
        "old": "            if stalls.parked() > 0 {\n",
        "new": "            if stalls.parked() > 1 {\n",
        "reason": "a section parked alone on the chip is never requeued when "
        "its stall's producer completes, so the run deadlocks",
    },
]


def run(cmd, cwd, env, timeout):
    """Runs `cmd` in its own process group; returns its exit code, or None
    when it timed out (the whole group is killed)."""
    proc = subprocess.Popen(
        cmd,
        cwd=cwd,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def copy_tree(dest):
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT,
        check=True,
        capture_output=True,
    ).stdout.decode()
    for rel in filter(None, listed.split("\0")):
        src = os.path.join(ROOT, rel)
        if not os.path.isfile(src):
            continue
        os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
        shutil.copy2(src, os.path.join(dest, rel))


def try_entry(entry, tree, env):
    path = os.path.join(tree, entry["file"])
    with open(path) as f:
        original = f.read()
    if original.count(entry["old"]) != 1:
        return "stale"
    with open(path, "w") as f:
        f.write(original.replace(entry["old"], entry["new"]))
    try:
        built = run(TEST + ["--no-run"], tree, env, TIMEOUT_S)
        if built is None:
            return "timed out"
        if built != 0:
            return "unbuildable"
        tested = run(TEST, tree, env, TIMEOUT_S)
        if tested is None:
            return "timed out"
        return "survived" if tested == 0 else "killed"
    finally:
        with open(path, "w") as f:
            f.write(original)


def main(names):
    unknown = set(names) - {entry["name"] for entry in CATALOGUE}
    if unknown:
        sys.exit(f"unknown entries: {', '.join(sorted(unknown))}")
    entries = [e for e in CATALOGUE if not names or e["name"] in names]
    scratch = tempfile.mkdtemp(prefix="parsecs-mutants-")
    try:
        return run_catalogue(entries, scratch)
    finally:
        shutil.rmtree(scratch)


def run_catalogue(entries, scratch):
    tree = os.path.join(scratch, "tree")
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(scratch, "target"))
    print(f"copying the working tree to {tree}", flush=True)
    copy_tree(tree)
    start = time.monotonic()
    if run(TEST, tree, env, None) != 0:
        print("the unmutated tree fails its tests; nothing to measure")
        return 1
    print(f"unmutated tree passes ({time.monotonic() - start:.0f} s)", flush=True)
    results = []
    for entry in entries:
        start = time.monotonic()
        result = try_entry(entry, tree, env)
        results.append(result)
        print(
            f"{result:<12} {entry['name']:<32} {time.monotonic() - start:5.0f} s"
            f"  {entry['file']}: {entry['reason']}",
            flush=True,
        )
    killed = results.count("killed")
    print(f"{killed}/{len(results)} killed")
    return 0 if killed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
