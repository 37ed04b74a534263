#!/usr/bin/env bash
# The library is what a request runs (ROADMAP item 10): every module file
# under the src/ of the eight request-path crates (dpu-sim, storage, qef,
# qcomp, verify, sched, hostdb, server) must be named by non-test code
# outside its own file and its parent mod.rs. Callers are every crate's
# src/ (its src/bin too) and the benchmark's rapid_bench/src. Figures
# (crates/bench), fuzzers (crates/fuzz), data generation (crates/tpch),
# examples and tests do not count: a module only they reach belongs with
# them. There is no exception.
#
# Paths are compared crate-qualified, after resolving `crate::`, `self::`,
# `super::`, `use` groups, the modules a file declares and the names it
# imports, so `rapid_sched::trace` never counts as naming
# `rapid_qef::trace`. A name a crate root re-exports (`pub use
# db::HostDb`) names the module it comes from wherever it is used
# (`hostdb::HostDb` names `hostdb::db`). A crate root's own code counts as a
# caller of its modules; its `mod` and `pub use` lines do not. Comments and
# `#[cfg(test)]` items are not code.
#
# Run from anywhere in the repository; prints every module no caller names
# and exits 1 if there is one.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

# crate directory=library name, e.g. crates/qef=rapid_qef
crates="rapid_bench=rapid_bench"
for manifest in crates/*/Cargo.toml; do
    name=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$manifest" | head -n 1)
    crates="$crates ${manifest%/Cargo.toml}=${name//-/_}"
done
targets=$(git ls-files -- 'crates/dpu-sim/src/*.rs' 'crates/storage/src/*.rs' \
    'crates/qef/src/*.rs' 'crates/qcomp/src/*.rs' 'crates/verify/src/*.rs' \
    'crates/sched/src/*.rs' 'crates/hostdb/src/*.rs' 'crates/server/src/*.rs' |
    grep -v -e '/lib\.rs$' -e '/src/bin/' | tr '\n' ' ')
# shellcheck disable=SC2046
unnamed=$(awk -v crates="$crates" -v targets="$targets" '
function ident(c) { return c ~ /[A-Za-z0-9_]/ }
function parent(p) { if (p !~ /::/) return ""; sub(/::[^:]*$/, "", p); return p }
function join(a, b) { return a == "" ? b : (b == "" ? a : a "::" b) }
# Sets lib, modpath (a::b; empty at a crate root) and root (whether f is a
# crate root) for file f.
function locate(f,    n, i, kv, pair, dir, rest) {
    lib = "rapid"; dir = "src/"
    n = split(crates, kv, " ")
    for (i = 1; i <= n; i++) {
        split(kv[i], pair, "=")
        if (index(f, pair[1] "/src/") == 1) { lib = pair[2]; dir = pair[1] "/src/" }
    }
    rest = substr(f, length(dir) + 1)
    root = rest == "lib.rs"
    if (rest ~ /^bin\//) { lib = "bin"; modpath = ""; return }
    sub(/\.rs$/, "", rest); sub(/(^|\/)(mod|lib|main)$/, "", rest)
    gsub(/\//, "::", rest)
    modpath = rest
}
# The crate-qualified form of a path written in the current file.
function absolute(p,    head) {
    sub(/^::/, "", p)
    if (sub(/^crate(::|$)/, "", p)) return join(lib, p)
    if (sub(/^self(::|$)/, "", p)) return join(join(lib, modpath), p)
    if (sub(/^super(::|$)/, "", p)) return join(join(lib, parent(modpath)), p)
    head = p; sub(/::.*$/, "", head)
    if (head in localmod) return join(join(lib, modpath), p)
    return p
}
# Flatten a `use` tree into crate-qualified paths. In a crate root, a
# `pub use` records each name it binds as a re-export; any other `use` is
# code and remembers the lowercase names it binds so that later `name::...`
# paths resolve through them.
function use_tree(stmt,    it, pre, body, items, n, i, out, name, path, reexport) {
    reexport = root && stmt ~ /^[ \t]*pub(\([a-z]+\))?[ \t]/
    sub(/^[ \t]*(pub(\([a-z]+\))?[ \t]+)?use[ \t]+/, "", stmt); sub(/;.*$/, "", stmt)
    gsub(/[ \t]+as[ \t]+/, "@", stmt)
    gsub(/[ \t]/, "", stmt)
    while (match(stmt, /[A-Za-z0-9_:]*::\{[^{}]*\}/)) {
        it = substr(stmt, RSTART, RLENGTH)
        pre = it; sub(/::\{.*$/, "", pre)
        body = it; sub(/^[^{]*\{/, "", body); sub(/\}$/, "", body)
        n = split(body, items, ",")
        out = ""
        for (i = 1; i <= n; i++) {
            if (items[i] == "") continue
            it = items[i]
            if (it ~ /^self(@|$)/) { sub(/^self/, "", it); it = pre it } else it = pre "::" it
            out = out (out == "" ? "" : ",") it
        }
        stmt = substr(stmt, 1, RSTART - 1) out substr(stmt, RSTART + RLENGTH)
    }
    n = split(stmt, items, ",")
    for (i = 1; i <= n; i++) {
        it = items[i]; name = ""
        if (index(it, "@")) { name = substr(it, index(it, "@") + 1); it = substr(it, 1, index(it, "@") - 1) }
        sub(/::\*$/, "", it)
        path = absolute(it)
        if (name == "") { name = path; sub(/^.*::/, "", name) }
        if (reexport) { nre++; re_from[nre] = join(lib, name); re_to[nre] = path; continue }
        if (name ~ /^[a-z_][a-z0-9_]*$/ && name != "_") alias[name] = path
        text[file] = text[file] " " path
    }
}
# A code line with every path head (an imported name, crate, self, super)
# replaced by its crate-qualified path.
function resolve(line,    out, rest, name, head) {
    out = ""; rest = line
    while (match(rest, /[a-z_][a-z0-9_]*::/)) {
        name = substr(rest, RSTART, RLENGTH - 2)
        head = RSTART > 1 ? substr(rest, RSTART - 1, 1) : (out == "" ? " " : substr(out, length(out), 1))
        out = out substr(rest, 1, RSTART - 1)
        if (ident(head) || head == ":") out = out name "::"
        else if (name in alias) out = out alias[name] "::"
        else if (name ~ /^(crate|self|super)$/ || name in localmod) out = out absolute(name) "::"
        else out = out name "::"
        rest = substr(rest, RSTART + RLENGTH)
    }
    return out rest
}
# Whether s names path p: p whole, or followed by `::` and more.
function names(s, p,    at, before, after) {
    while ((at = index(s, p)) > 0) {
        before = at > 1 ? substr(s, at - 1, 1) : " "
        after = substr(s, at + length(p), 1)
        if (!ident(before) && before != ":" && !ident(after)) return 1
        s = substr(s, at + 1)
    }
    return 0
}
BEGIN {
    ntargets = split(targets, t, " ")
    for (i = 1; i <= ntargets; i++) {
        locate(t[i]); tpath[t[i]] = join(lib, modpath)
        dir = t[i]; sub(/\/[^\/]*$/, "", dir)
        if (t[i] ~ /\/mod\.rs$/) sub(/\/[^\/]*$/, "", dir)
        owner[t[i]] = dir "/mod.rs"
    }
}
FNR == 1 { file = FILENAME; locate(file); text[file] = ""; split("", alias); split("", localmod); skip = 0; pend = 0; stmt = "" }
{
    line = $0
    if (skip) { if (match(line, /^[ \t]*}/) && RLENGTH - 1 == depth) skip = 0; next }
    if (line ~ /^[ \t]*#\[cfg\(test\)\]/) { pend = 1; next }
    if (pend) {
        if (line ~ /^[ \t]*#\[/) next
        pend = 0
        if (line ~ /\{[ \t]*$/) { match(line, /^[ \t]*/); depth = RLENGTH; skip = 1 }
        next
    }
    if (line ~ /^[ \t]*\/\//) next
    if (index(line, "\"") == 0) sub(/\/\/.*$/, "", line)
    if (match(line, /^[ \t]*(pub(\([a-z]+\))?[ \t]+)?mod[ \t]+[a-z_][a-z0-9_]*[ \t]*;/)) {
        name = line; sub(/^[ \t]*(pub(\([a-z]+\))?[ \t]+)?mod[ \t]+/, "", name); sub(/[ \t]*;.*$/, "", name)
        localmod[name] = 1
        next
    }
    if (stmt != "" || line ~ /^[ \t]*(pub(\([a-z]+\))?[ \t]+)?use[ \t]/) {
        stmt = stmt " " line
        if (line ~ /;/) { use_tree(stmt); stmt = "" }
        next
    }
    text[file] = text[file] " " resolve(line)
}
END {
    for (i = 1; i <= ntargets; i++) {
        p = tpath[t[i]]
        # The path itself, and every re-exported name of it or of an item in it.
        np = 1; paths[1] = p
        for (j = 1; j <= nre; j++) {
            if (re_to[j] == p || index(re_to[j], p "::") == 1) paths[++np] = re_from[j]
            else if (index(p, re_to[j] "::") == 1) paths[++np] = re_from[j] substr(p, length(re_to[j]) + 1)
        }
        for (f in text) {
            if (f == t[i] || f == owner[t[i]]) continue
            for (j = 1; j <= np; j++) if (names(text[f], paths[j])) { named[t[i]] = 1; break }
            if (t[i] in named) break
        }
        if (!(t[i] in named)) print "   no caller outside figures, fuzzers, data generation, examples and tests: " p "  (" t[i] ")"
    }
}
' $(git ls-files -- 'src/*.rs' 'crates/*/src/*.rs' 'rapid_bench/src/*.rs' \
    ':!crates/bench/*' ':!crates/fuzz/*' ':!crates/tpch/*'))

[ -z "$unnamed" ] || { echo "$unnamed"; exit 1; }
