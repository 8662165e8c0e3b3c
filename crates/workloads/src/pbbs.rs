//! Analogues of the ten PBBS benchmarks of Table 1.
//!
//! The paper measures the ILP of ten programs of the Problem Based
//! Benchmark Suite (Shun et al., SPAA '12). The C++ sources and gigascale
//! inputs are not part of the paper's artefact, so this module implements
//! the same algorithmic kernels in mini-C at laptop scale:
//!
//! | id | PBBS benchmark | kernel here |
//! |----|----------------|-------------|
//! | 01 | breadthFirstSearch/ndBFS | frontier BFS over a constant-degree graph |
//! | 02 | comparisonSort/quickSort | recursive quicksort |
//! | 03 | convexHull/quickHull | gift-wrapping convex hull (same O(n·h) point tests) |
//! | 04 | dictionary/deterministicHash | open-addressing hash table insert + lookup |
//! | 05 | integerSort/blockRadixSort | LSD radix sort, 8-bit digits |
//! | 06 | maximalIndependentSet/ndMIS | greedy MIS over the adjacency array |
//! | 07 | maximalMatching/ndMatching | greedy maximal matching over an edge list |
//! | 08 | minSpanningTree/parallelKruskal | Kruskal with quicksort + union-find |
//! | 09 | nearestNeighbors/octTree2Neighbors | all-pairs nearest neighbour (octree replaced by exhaustive search) |
//! | 10 | removeDuplicates/deterministicHash | hash-set duplicate removal |
//!
//! Each benchmark provides a seeded dataset generator, a mini-C program and
//! a Rust oracle that mirrors the kernel, so the machine's outputs can be
//! checked exactly.

use std::collections::HashSet;

use parsecs_cc::{compile, Backend, CcError, CompileOptions};
use parsecs_isa::Program;

use crate::data;

/// One of the ten Table 1 benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Benchmark {
    Bfs,
    ComparisonSort,
    ConvexHull,
    Dictionary,
    IntegerSort,
    Mis,
    Matching,
    Mst,
    NearestNeighbors,
    RemoveDuplicates,
}

/// The Table 1 catalog.
#[derive(Debug, Clone, Copy, Default)]
pub struct Catalog;

impl Catalog {
    /// The ten benchmarks in the order of the paper's Table 1.
    pub fn table1() -> Vec<Benchmark> {
        Benchmark::ALL.to_vec()
    }
}

impl Benchmark {
    /// All benchmarks, in Table 1 order.
    pub const ALL: [Benchmark; 10] = [
        Benchmark::Bfs,
        Benchmark::ComparisonSort,
        Benchmark::ConvexHull,
        Benchmark::Dictionary,
        Benchmark::IntegerSort,
        Benchmark::Mis,
        Benchmark::Matching,
        Benchmark::Mst,
        Benchmark::NearestNeighbors,
        Benchmark::RemoveDuplicates,
    ];

    /// Table 1 number (1-based).
    pub fn id(&self) -> usize {
        Benchmark::ALL
            .iter()
            .position(|b| b == self)
            .expect("listed")
            + 1
    }

    /// The PBBS benchmark/implementation name of Table 1.
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::Bfs => "breadthFirstSearch/ndBFS",
            Benchmark::ComparisonSort => "comparisonSort/quickSort",
            Benchmark::ConvexHull => "convexHull/quickHull",
            Benchmark::Dictionary => "dictionary/deterministicHash",
            Benchmark::IntegerSort => "integerSort/blockRadixSort",
            Benchmark::Mis => "maximalIndependentSet/ndMIS",
            Benchmark::Matching => "maximalMatching/ndMatching",
            Benchmark::Mst => "minSpanningTree/parallelKruskal",
            Benchmark::NearestNeighbors => "nearestNeighbors/octTree2Neighbors",
            Benchmark::RemoveDuplicates => "removeDuplicates/deterministicHash",
        }
    }

    /// Short kernel name used in reports and bench ids.
    pub fn kernel(&self) -> &'static str {
        match self {
            Benchmark::Bfs => "bfs",
            Benchmark::ComparisonSort => "quicksort",
            Benchmark::ConvexHull => "convex_hull",
            Benchmark::Dictionary => "dictionary",
            Benchmark::IntegerSort => "radix_sort",
            Benchmark::Mis => "mis",
            Benchmark::Matching => "matching",
            Benchmark::Mst => "kruskal",
            Benchmark::NearestNeighbors => "nearest_neighbors",
            Benchmark::RemoveDuplicates => "remove_duplicates",
        }
    }

    /// The mini-C source of the kernel.
    pub(crate) fn source(&self) -> &'static str {
        match self {
            Benchmark::Bfs => BFS_SRC,
            Benchmark::ComparisonSort => QUICKSORT_SRC,
            Benchmark::ConvexHull => HULL_SRC,
            Benchmark::Dictionary => DICTIONARY_SRC,
            Benchmark::IntegerSort => RADIX_SRC,
            Benchmark::Mis => MIS_SRC,
            Benchmark::Matching => MATCHING_SRC,
            Benchmark::Mst => MST_SRC,
            Benchmark::NearestNeighbors => NN_SRC,
            Benchmark::RemoveDuplicates => DEDUP_SRC,
        }
    }

    /// Compilation options for a problem of `size` elements/nodes/points
    /// with the given `seed`: the dataset arrays plus a `params` array.
    pub(crate) fn options(&self, size: usize, seed: u64, backend: Backend) -> CompileOptions {
        let n = size.max(4);
        let mut options = CompileOptions::new(backend);
        match self {
            Benchmark::Bfs | Benchmark::Mis => {
                let degree = 4;
                options = options
                    .with_data("edges", data::graph(n, degree, seed))
                    .with_data("queue", vec![0; n])
                    .with_data("visited", vec![0; n])
                    .with_data("dist", vec![0; n])
                    .with_data("in_mis", vec![0; n])
                    .with_data("params", vec![n as u64, degree as u64]);
            }
            Benchmark::ComparisonSort => {
                options = options
                    .with_data("a", data::values(n, 1 << 30, seed))
                    .with_data("params", vec![n as u64]);
            }
            Benchmark::ConvexHull | Benchmark::NearestNeighbors => {
                let (px, py) = distinct_points(n, seed);
                options = options
                    .with_data("px", px)
                    .with_data("py", py)
                    .with_data("params", vec![n as u64]);
            }
            Benchmark::Dictionary => {
                let capacity = data::next_power_of_two(2 * n);
                options = options
                    .with_data("keys", data::values(n, 1 << 30, seed))
                    .with_data("queries", data::values(n, 1 << 30, seed ^ 0x9e37))
                    .with_data("table", vec![0; capacity])
                    .with_data("params", vec![n as u64, (capacity - 1) as u64]);
            }
            Benchmark::IntegerSort => {
                options = options
                    .with_data("a", data::values(n, 1 << 32, seed))
                    .with_data("buf", vec![0; n])
                    .with_data("count", vec![0; 256])
                    .with_data("params", vec![n as u64]);
            }
            Benchmark::Matching => {
                let m = 4 * n;
                let (src, dst, _) = data::weighted_edges(n, m, seed);
                options = options
                    .with_data("src", src)
                    .with_data("dst", dst)
                    .with_data("matched", vec![0; n])
                    .with_data("params", vec![n as u64, m as u64]);
            }
            Benchmark::Mst => {
                let m = 4 * n;
                let (src, dst, weight) = data::weighted_edges(n, m, seed);
                options = options
                    .with_data("src", src)
                    .with_data("dst", dst)
                    .with_data("weight", weight)
                    .with_data("keys", vec![0; m])
                    .with_data("parent", vec![0; n])
                    .with_data("params", vec![n as u64, m as u64]);
            }
            Benchmark::RemoveDuplicates => {
                let capacity = data::next_power_of_two(2 * n);
                let bound = (n as u64 / 2).max(2);
                options = options
                    .with_data("a", data::values(n, bound, seed))
                    .with_data("table", vec![0; capacity])
                    .with_data("params", vec![n as u64, (capacity - 1) as u64]);
            }
        }
        options
    }

    /// Compiles the benchmark for a given problem size, seed and backend.
    ///
    /// # Errors
    ///
    /// Propagates compiler errors (none are expected for the embedded
    /// sources; an error indicates a bug).
    pub fn program(&self, size: usize, seed: u64, backend: Backend) -> Result<Program, CcError> {
        compile(self.source(), &self.options(size, seed, backend))
    }

    /// The expected `out` values, computed by a Rust mirror of the kernel
    /// on the same generated dataset.
    pub fn expected(&self, size: usize, seed: u64) -> Vec<u64> {
        let n = size.max(4);
        match self {
            Benchmark::Bfs => oracle_bfs(n, seed),
            Benchmark::ComparisonSort => oracle_sorted_checksum(data::values(n, 1 << 30, seed)),
            Benchmark::ConvexHull => oracle_hull(n, seed),
            Benchmark::Dictionary => oracle_dictionary(n, seed),
            Benchmark::IntegerSort => {
                let sorted = oracle_sorted_checksum(data::values(n, 1 << 32, seed));
                vec![sorted[0]]
            }
            Benchmark::Mis => oracle_mis(n, seed),
            Benchmark::Matching => oracle_matching(n, seed),
            Benchmark::Mst => oracle_mst(n, seed),
            Benchmark::NearestNeighbors => oracle_nearest(n, seed),
            Benchmark::RemoveDuplicates => oracle_dedup(n, seed),
        }
    }
}

/// Generates `n` pairwise distinct points (gift wrapping assumes distinct
/// input points).
fn distinct_points(n: usize, seed: u64) -> (Vec<u64>, Vec<u64>) {
    let mut seen = HashSet::new();
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    let mut attempt = 0u64;
    while xs.len() < n {
        let (cx, cy) = data::points(n, seed.wrapping_add(attempt * 7919));
        for (x, y) in cx.into_iter().zip(cy) {
            if xs.len() == n {
                break;
            }
            if seen.insert((x, y)) {
                xs.push(x);
                ys.push(y);
            }
        }
        attempt += 1;
    }
    (xs, ys)
}

// ---------------------------------------------------------------------------
// mini-C sources
// ---------------------------------------------------------------------------

const BFS_SRC: &str = "
fn main() {
    var n = params[0];
    var deg = params[1];
    var head = 0;
    var tail = 1;
    queue[0] = 0;
    visited[0] = 1;
    var reached = 1;
    var levelsum = 0;
    while (head < tail) {
        var u = queue[head];
        head = head + 1;
        var j = 0;
        while (j < deg) {
            var v = edges[u * deg + j];
            if (visited[v] == 0) {
                visited[v] = 1;
                dist[v] = dist[u] + 1;
                levelsum = levelsum + dist[v];
                queue[tail] = v;
                tail = tail + 1;
                reached = reached + 1;
            } else { }
            j = j + 1;
        }
    }
    out(reached);
    out(levelsum);
}
";

const QUICKSORT_SRC: &str = "
fn quicksort(a, lo, hi) {
    if (lo + 1 >= hi) { return 0; } else { }
    var pivot = a[hi - 1];
    var i = lo;
    var j = lo;
    while (j < hi - 1) {
        if (a[j] < pivot) {
            var tmp = a[i];
            a[i] = a[j];
            a[j] = tmp;
            i = i + 1;
        } else { }
        j = j + 1;
    }
    var last = a[i];
    a[i] = a[hi - 1];
    a[hi - 1] = last;
    quicksort(a, lo, i);
    quicksort(a, i + 1, hi);
    return 0;
}
fn main() {
    var n = params[0];
    quicksort(a, 0, n);
    var i = 0;
    var check = 0;
    while (i < n) {
        check = check + a[i] * (i + 1);
        i = i + 1;
    }
    out(check);
    out(a[0]);
    out(a[n - 1]);
}
";

const HULL_SRC: &str = "
fn orient(ox, oy, ax, ay, bx, by) {
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox);
}
fn main() {
    var n = params[0];
    var start = 0;
    var i = 1;
    while (i < n) {
        if (py[i] < py[start]) { start = i; } else {
            if (py[i] == py[start]) {
                if (px[i] < px[start]) { start = i; } else { }
            } else { }
        }
        i = i + 1;
    }
    var hull = 0;
    var p = start;
    var done = 0;
    while (done == 0) {
        hull = hull + 1;
        var q = 0;
        if (p == 0) { q = 1; } else { }
        var j = 0;
        while (j < n) {
            if (j != p) {
                var o = orient(px[p], py[p], px[q], py[q], px[j], py[j]);
                if (o < 0) { q = j; } else { }
            } else { }
            j = j + 1;
        }
        p = q;
        if (p == start) { done = 1; } else { }
        if (hull > n) { done = 1; } else { }
    }
    out(hull);
}
";

const DICTIONARY_SRC: &str = "
fn insert(table, mask, key) {
    var h = (key * 2654435761) & mask;
    var done = 0;
    while (done == 0) {
        if (table[h] == 0) {
            table[h] = key + 1;
            done = 1;
        } else {
            if (table[h] == key + 1) { done = 1; } else {
                h = (h + 1) & mask;
            }
        }
    }
    return 0;
}
fn lookup(table, mask, key) {
    var h = (key * 2654435761) & mask;
    var probing = 1;
    while (probing == 1) {
        if (table[h] == 0) { return 0; } else { }
        if (table[h] == key + 1) { return 1; } else { }
        h = (h + 1) & mask;
    }
    return 0;
}
fn main() {
    var n = params[0];
    var mask = params[1];
    var i = 0;
    while (i < n) {
        insert(table, mask, keys[i]);
        i = i + 1;
    }
    var found = 0;
    i = 0;
    while (i < n) {
        found = found + lookup(table, mask, queries[i]);
        i = i + 1;
    }
    var occupied = 0;
    i = 0;
    while (i <= mask) {
        if (table[i] != 0) { occupied = occupied + 1; } else { }
        i = i + 1;
    }
    out(found);
    out(occupied);
}
";

const RADIX_SRC: &str = "
fn main() {
    var n = params[0];
    var pass = 0;
    while (pass < 4) {
        var shift = pass << 3;
        var i = 0;
        while (i < 256) { count[i] = 0; i = i + 1; }
        i = 0;
        while (i < n) {
            var d = (a[i] >> shift) & 255;
            count[d] = count[d] + 1;
            i = i + 1;
        }
        var run = 0;
        i = 0;
        while (i < 256) {
            var c = count[i];
            count[i] = run;
            run = run + c;
            i = i + 1;
        }
        i = 0;
        while (i < n) {
            var d2 = (a[i] >> shift) & 255;
            buf[count[d2]] = a[i];
            count[d2] = count[d2] + 1;
            i = i + 1;
        }
        i = 0;
        while (i < n) { a[i] = buf[i]; i = i + 1; }
        pass = pass + 1;
    }
    var check = 0;
    var k = 0;
    while (k < n) { check = check + a[k] * (k + 1); k = k + 1; }
    out(check);
}
";

const MIS_SRC: &str = "
fn main() {
    var n = params[0];
    var deg = params[1];
    var i = 0;
    var count = 0;
    while (i < n) {
        var ok = 1;
        var j = 0;
        while (j < deg) {
            var v = edges[i * deg + j];
            if (v < i) {
                if (in_mis[v] == 1) { ok = 0; } else { }
            } else { }
            j = j + 1;
        }
        if (ok == 1) {
            in_mis[i] = 1;
            count = count + 1;
        } else { }
        i = i + 1;
    }
    out(count);
}
";

const MATCHING_SRC: &str = "
fn main() {
    var m = params[1];
    var e = 0;
    var count = 0;
    while (e < m) {
        var u = src[e];
        var v = dst[e];
        if (u != v) {
            if (matched[u] == 0) {
                if (matched[v] == 0) {
                    matched[u] = 1;
                    matched[v] = 1;
                    count = count + 1;
                } else { }
            } else { }
        } else { }
        e = e + 1;
    }
    out(count);
}
";

const MST_SRC: &str = "
fn quicksort(a, lo, hi) {
    if (lo + 1 >= hi) { return 0; } else { }
    var pivot = a[hi - 1];
    var i = lo;
    var j = lo;
    while (j < hi - 1) {
        if (a[j] < pivot) {
            var tmp = a[i];
            a[i] = a[j];
            a[j] = tmp;
            i = i + 1;
        } else { }
        j = j + 1;
    }
    var last = a[i];
    a[i] = a[hi - 1];
    a[hi - 1] = last;
    quicksort(a, lo, i);
    quicksort(a, i + 1, hi);
    return 0;
}
fn find(parent, x) {
    while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    return x;
}
fn main() {
    var n = params[0];
    var m = params[1];
    var i = 0;
    while (i < n) { parent[i] = i; i = i + 1; }
    i = 0;
    while (i < m) { keys[i] = weight[i] * 1048576 + i; i = i + 1; }
    quicksort(keys, 0, m);
    var total = 0;
    var picked = 0;
    i = 0;
    while (i < m) {
        var idx = keys[i] & 1048575;
        var ru = find(parent, src[idx]);
        var rv = find(parent, dst[idx]);
        if (ru != rv) {
            parent[ru] = rv;
            total = total + weight[idx];
            picked = picked + 1;
        } else { }
        i = i + 1;
    }
    out(total);
    out(picked);
}
";

const NN_SRC: &str = "
fn main() {
    var n = params[0];
    var i = 0;
    var total = 0;
    while (i < n) {
        var best = 0 - 1;
        var j = 0;
        while (j < n) {
            if (j != i) {
                var dx = px[i] - px[j];
                var dy = py[i] - py[j];
                var d = dx * dx + dy * dy;
                if (best < 0) { best = d; } else {
                    if (d < best) { best = d; } else { }
                }
            } else { }
            j = j + 1;
        }
        total = total + best;
        i = i + 1;
    }
    out(total);
}
";

const DEDUP_SRC: &str = "
fn main() {
    var n = params[0];
    var mask = params[1];
    var unique = 0;
    var i = 0;
    while (i < n) {
        var key = a[i];
        var h = (key * 2654435761) & mask;
        var done = 0;
        while (done == 0) {
            if (table[h] == 0) {
                table[h] = key + 1;
                unique = unique + 1;
                done = 1;
            } else {
                if (table[h] == key + 1) { done = 1; } else {
                    h = (h + 1) & mask;
                }
            }
        }
        i = i + 1;
    }
    out(unique);
}
";

// ---------------------------------------------------------------------------
// Rust oracles (mirrors of the kernels on the same generated data)
// ---------------------------------------------------------------------------

fn oracle_bfs(n: usize, seed: u64) -> Vec<u64> {
    let degree = 4usize;
    let edges = data::graph(n, degree, seed);
    let mut visited = vec![false; n];
    let mut dist = vec![0u64; n];
    let mut queue = vec![0usize];
    visited[0] = true;
    let mut head = 0;
    let mut reached = 1u64;
    let mut levelsum = 0u64;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        for j in 0..degree {
            let v = edges[u * degree + j] as usize;
            if !visited[v] {
                visited[v] = true;
                dist[v] = dist[u] + 1;
                levelsum += dist[v];
                queue.push(v);
                reached += 1;
            }
        }
    }
    vec![reached, levelsum]
}

fn oracle_sorted_checksum(mut a: Vec<u64>) -> Vec<u64> {
    a.sort_unstable();
    let check = a.iter().enumerate().fold(0u64, |acc, (i, v)| {
        acc.wrapping_add(v.wrapping_mul(i as u64 + 1))
    });
    vec![check, a[0], *a.last().expect("non-empty")]
}

fn oracle_hull(n: usize, seed: u64) -> Vec<u64> {
    let (px, py) = distinct_points(n, seed);
    let orient = |o: usize, a: usize, b: usize| -> i64 {
        let (ox, oy) = (px[o] as i64, py[o] as i64);
        let (ax, ay) = (px[a] as i64, py[a] as i64);
        let (bx, by) = (px[b] as i64, py[b] as i64);
        (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)
    };
    let mut start = 0usize;
    for i in 1..n {
        if py[i] < py[start] || (py[i] == py[start] && px[i] < px[start]) {
            start = i;
        }
    }
    let mut hull = 0u64;
    let mut p = start;
    loop {
        hull += 1;
        let mut q = if p == 0 { 1 } else { 0 };
        for j in 0..n {
            if j != p && orient(p, q, j) < 0 {
                q = j;
            }
        }
        p = q;
        if p == start || hull > n as u64 {
            break;
        }
    }
    vec![hull]
}

fn hash_slot(key: u64, mask: u64) -> u64 {
    key.wrapping_mul(2654435761) & mask
}

fn oracle_dictionary(n: usize, seed: u64) -> Vec<u64> {
    let keys = data::values(n, 1 << 30, seed);
    let queries = data::values(n, 1 << 30, seed ^ 0x9e37);
    let capacity = data::next_power_of_two(2 * n);
    let mask = (capacity - 1) as u64;
    let mut table = vec![0u64; capacity];
    for &key in &keys {
        let mut h = hash_slot(key, mask);
        loop {
            if table[h as usize] == 0 {
                table[h as usize] = key + 1;
                break;
            }
            if table[h as usize] == key + 1 {
                break;
            }
            h = (h + 1) & mask;
        }
    }
    let mut found = 0u64;
    for &key in &queries {
        let mut h = hash_slot(key, mask);
        loop {
            if table[h as usize] == 0 {
                break;
            }
            if table[h as usize] == key + 1 {
                found += 1;
                break;
            }
            h = (h + 1) & mask;
        }
    }
    let occupied = table.iter().filter(|v| **v != 0).count() as u64;
    vec![found, occupied]
}

fn oracle_mis(n: usize, seed: u64) -> Vec<u64> {
    let degree = 4usize;
    let edges = data::graph(n, degree, seed);
    let mut in_mis = vec![false; n];
    let mut count = 0u64;
    for i in 0..n {
        let mut ok = true;
        for j in 0..degree {
            let v = edges[i * degree + j] as usize;
            if v < i && in_mis[v] {
                ok = false;
            }
        }
        if ok {
            in_mis[i] = true;
            count += 1;
        }
    }
    vec![count]
}

fn oracle_matching(n: usize, seed: u64) -> Vec<u64> {
    let m = 4 * n;
    let (src, dst, _) = data::weighted_edges(n, m, seed);
    let mut matched = vec![false; n];
    let mut count = 0u64;
    for e in 0..m {
        let (u, v) = (src[e] as usize, dst[e] as usize);
        if u != v && !matched[u] && !matched[v] {
            matched[u] = true;
            matched[v] = true;
            count += 1;
        }
    }
    vec![count]
}

fn oracle_mst(n: usize, seed: u64) -> Vec<u64> {
    let m = 4 * n;
    let (src, dst, weight) = data::weighted_edges(n, m, seed);
    let mut keys: Vec<u64> = (0..m).map(|i| weight[i] * 1_048_576 + i as u64).collect();
    keys.sort_unstable();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut total = 0u64;
    let mut picked = 0u64;
    for key in keys {
        let idx = (key & 1_048_575) as usize;
        let ru = find(&mut parent, src[idx] as usize);
        let rv = find(&mut parent, dst[idx] as usize);
        if ru != rv {
            parent[ru] = rv;
            total += weight[idx];
            picked += 1;
        }
    }
    vec![total, picked]
}

fn oracle_nearest(n: usize, seed: u64) -> Vec<u64> {
    let (px, py) = distinct_points(n, seed);
    let mut total = 0u64;
    for i in 0..n {
        let mut best = u64::MAX;
        for j in 0..n {
            if i != j {
                let dx = px[i] as i64 - px[j] as i64;
                let dy = py[i] as i64 - py[j] as i64;
                best = best.min((dx * dx + dy * dy) as u64);
            }
        }
        total = total.wrapping_add(best);
    }
    vec![total]
}

fn oracle_dedup(n: usize, seed: u64) -> Vec<u64> {
    let bound = (n as u64 / 2).max(2);
    let a = data::values(n, bound, seed);
    let unique: HashSet<u64> = a.into_iter().collect();
    vec![unique.len() as u64]
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsecs_machine::Machine;

    fn run(benchmark: Benchmark, size: usize, seed: u64, backend: Backend) -> Vec<u64> {
        let program = benchmark.program(size, seed, backend).expect("compiles");
        let mut machine = Machine::load(&program).expect("loads");
        machine.run(200_000_000).expect("halts").outputs
    }

    #[test]
    fn catalog_matches_table1() {
        let table = Catalog::table1();
        assert_eq!(table.len(), 10);
        assert_eq!(table[0].id(), 1);
        assert_eq!(table[0].name(), "breadthFirstSearch/ndBFS");
        assert_eq!(table[9].name(), "removeDuplicates/deterministicHash");
    }

    #[test]
    fn every_benchmark_matches_its_oracle_with_the_call_backend() {
        for benchmark in Benchmark::ALL {
            let outputs = run(benchmark, 48, 11, Backend::Calls);
            assert_eq!(
                outputs,
                benchmark.expected(48, 11),
                "{} disagrees with its oracle",
                benchmark.name()
            );
            assert!(!outputs.is_empty());
        }
    }

    #[test]
    fn every_benchmark_matches_its_oracle_with_the_fork_backend() {
        for benchmark in Benchmark::ALL {
            let outputs = run(benchmark, 32, 3, Backend::Forks);
            assert_eq!(
                outputs,
                benchmark.expected(32, 3),
                "{} (fork backend) disagrees with its oracle",
                benchmark.name()
            );
        }
    }

    #[test]
    fn results_scale_with_the_problem_size() {
        let small = run(Benchmark::RemoveDuplicates, 16, 5, Backend::Calls);
        let large = run(Benchmark::RemoveDuplicates, 128, 5, Backend::Calls);
        assert!(large[0] >= small[0]);
        let sort_small = run(Benchmark::ComparisonSort, 16, 5, Backend::Calls);
        let sort_large = run(Benchmark::ComparisonSort, 64, 5, Backend::Calls);
        assert_ne!(sort_small[0], sort_large[0]);
    }

    #[test]
    fn different_seeds_give_different_datasets() {
        let a = run(Benchmark::IntegerSort, 64, 1, Backend::Calls);
        let b = run(Benchmark::IntegerSort, 64, 2, Backend::Calls);
        assert_ne!(a, b);
    }

    #[test]
    fn kruskal_picks_a_spanning_forest() {
        let outputs = run(Benchmark::Mst, 32, 9, Backend::Calls);
        let picked = outputs[1];
        assert!(
            picked < 32,
            "a forest over 32 nodes has fewer than 32 edges"
        );
        assert!(picked > 0);
    }

    #[test]
    fn distinct_points_are_distinct() {
        let (xs, ys) = distinct_points(200, 3);
        let set: HashSet<(u64, u64)> = xs.iter().copied().zip(ys.iter().copied()).collect();
        assert_eq!(set.len(), 200);
    }
}
