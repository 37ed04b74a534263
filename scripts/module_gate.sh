#!/usr/bin/env bash
# The library is what a query runs (ROADMAP item 10): every module file under
# crates/{qef,qcomp,storage,dpu-sim}/src must be named by non-test code
# outside its own file and its parent mod.rs/lib.rs. Figures (crates/bench),
# fuzzers (crates/fuzz), data generation (crates/tpch), examples and tests
# do not count: a module only they reach belongs with them.
#
# Paths are compared crate-qualified, after resolving `crate::`, `self::`,
# `super::`, `use` groups and the names a file imports, so
# `rapid_qef::ops::partition` never counts as naming
# `dpu_sim::dms::partition`. Comments and `#[cfg(test)]` items are not code.
#
# Run from anywhere in the repository; prints every module no caller names
# and exits 1 if one is not a listed exception.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

# The one exception. dpu_sim::dms::partition is the DMS hardware
# partitioner: ROADMAP 1(c) puts it on the request path as round one of a
# scan-fed partition pass; until then only Figure 8 and
# examples/dpu_hardware.rs run it.
EXCEPTION="dpu_sim::dms::partition"

# crate directory=library name, e.g. crates/qef=rapid_qef
crates=""
for manifest in crates/*/Cargo.toml; do
    name=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$manifest" | head -n 1)
    crates="$crates ${manifest%/Cargo.toml}=${name//-/_}"
done
targets=$(git ls-files -- 'crates/qef/src/*.rs' 'crates/qcomp/src/*.rs' \
    'crates/storage/src/*.rs' 'crates/dpu-sim/src/*.rs' | grep -v '/lib\.rs$' | tr '\n' ' ')
# shellcheck disable=SC2046
unnamed=$(awk -v crates="$crates" -v targets="$targets" '
function ident(c) { return c ~ /[A-Za-z0-9_]/ }
function parent(p) { if (p !~ /::/) return ""; sub(/::[^:]*$/, "", p); return p }
function join(a, b) { return a == "" ? b : (b == "" ? a : a "::" b) }
# Sets lib and modpath (a::b; empty at a crate root) for file f.
function locate(f,    n, i, kv, pair, dir, rest) {
    lib = "rapid"; dir = "src/"
    n = split(crates, kv, " ")
    for (i = 1; i <= n; i++) {
        split(kv[i], pair, "=")
        if (index(f, pair[1] "/src/") == 1) { lib = pair[2]; dir = pair[1] "/src/" }
    }
    rest = substr(f, length(dir) + 1)
    if (rest ~ /^bin\//) { lib = "bin"; modpath = ""; return }
    sub(/\.rs$/, "", rest); sub(/(^|\/)(mod|lib|main)$/, "", rest)
    gsub(/\//, "::", rest)
    modpath = rest
}
# The crate-qualified form of a path written in the current file.
function absolute(p) {
    sub(/^::/, "", p)
    if (p ~ /^rapid::(qef|qcomp|storage|dpu)(::|$)/) {
        sub(/^rapid::qef/, "rapid_qef", p); sub(/^rapid::qcomp/, "rapid_qcomp", p)
        sub(/^rapid::storage/, "rapid_storage", p); sub(/^rapid::dpu/, "dpu_sim", p)
    }
    if (sub(/^crate(::|$)/, "", p)) return join(lib, p)
    if (sub(/^self(::|$)/, "", p)) return join(join(lib, modpath), p)
    if (sub(/^super(::|$)/, "", p)) return join(join(lib, parent(modpath)), p)
    return p
}
# Flatten a `use` tree into crate-qualified paths; remember the lowercase
# names it binds so that later `name::...` paths resolve through them.
function use_tree(stmt,    it, pre, body, items, n, i, out, name, path) {
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
        if (name ~ /^[a-z_][a-z0-9_]*$/ && name != "_") alias[name] = path
        text = text " " path
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
        else if (name ~ /^(crate|self|super)$/) out = out absolute(name) "::"
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
function flush(    i) {
    if (file == "") return
    for (i = 1; i <= ntargets; i++)
        if (t[i] != file && owner[t[i]] != file && names(text, tpath[t[i]])) named[t[i]] = 1
}
BEGIN {
    ntargets = split(targets, t, " ")
    for (i = 1; i <= ntargets; i++) {
        locate(t[i]); tpath[t[i]] = join(lib, modpath)
        dir = t[i]; sub(/\/[^\/]*$/, "", dir)
        if (t[i] ~ /\/mod\.rs$/) sub(/\/[^\/]*$/, "", dir)
        owner[t[i]] = dir (dir ~ /\/src$/ ? "/lib.rs" : "/mod.rs")
    }
}
FNR == 1 { flush(); file = FILENAME; locate(file); text = ""; split("", alias); skip = 0; pend = 0; stmt = "" }
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
    if (stmt != "" || line ~ /^[ \t]*(pub(\([a-z]+\))?[ \t]+)?use[ \t]/) {
        stmt = stmt " " line
        if (line ~ /;/) { use_tree(stmt); stmt = "" }
        next
    }
    text = text " " resolve(line)
}
END {
    flush()
    for (i = 1; i <= ntargets; i++) if (!(t[i] in named)) print tpath[t[i]] "  (" t[i] ")"
}
' $(git ls-files -- 'src/*.rs' 'crates/*/src/*.rs' ':!crates/bench/*' ':!crates/fuzz/*' ':!crates/tpch/*'))

status=0
while IFS= read -r line; do
    [ -n "$line" ] || continue
    if [ "${line%% *}" = "$EXCEPTION" ]; then
        echo "   excepted (ROADMAP 1(c)): $line"
    else
        echo "   no caller outside figures, fuzzers, data generation, examples and tests: $line"
        status=1
    fi
done <<< "$unnamed"
exit $status
