"""The checks, written against tokens/symbols instead of regexes.

Each per-file check takes (sf, symtab, cross) where `cross` is the merged
cross-file context (unordered names, Result-returning functions, the
repo-wide shard field->owner map, and the check configuration).  Graph-level
checks (layer-graph) live in graph.py and run from harvested data.

CHECKS is the registry the CLI, fixture mode, and --list-checks all read —
one place, so docs assertions cannot drift from the code.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Set, Tuple

from .source import Finding, SourceFile
from .symbols import Decl, Scope, SymbolTable
from .tokens import match_forward

CHECKS: Dict[str, str] = {
    "wallclock": "wall-clock or ambient randomness on a simulated path",
    "unordered-iter": "iteration over an unordered container (hash-seed order)",
    "discarded-result": "Result<T> return value silently dropped",
    "raw-seconds": "raw double seconds variable instead of sim::Duration",
    "span-leak": "trace span context opened but never closed or handed off",
    "cursor-bypass": "direct MetricsRegistry read inside a window-capture path",
    "hot-alloc": "heap allocation, string stream, by-name metric lookup or cache-key "
                 "render in a hot-path file",
    "shard-ownership": "shard-local state unannotated or mutated cross-shard",
    "layer-graph": "include edge violating the committed layer map, or an include cycle",
    "callback-capture": "arena-slot reference or raw pointer captured into a deferred callback",
    "event-kind": "schedule/submit call in a hot-path file without an APE_EVT kind tag",
    "throwing-parse": "std::sto* call: throws on malformed text instead of returning an error",
}

RAW_SECONDS_SUFFIX = re.compile(r"_(?:s|sec|secs|seconds)$")

CLOCK_IDS = {"system_clock", "steady_clock", "high_resolution_clock"}
ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}
STMT_SKIP_FIRST = {"return", "co_return", "if", "else", "while", "for", "switch",
                   "case", "auto", "const", "static", "using", "typedef", "delete",
                   "throw", "new", "break", "continue", "goto"}
BUILTIN_RETURN_TYPES = {"void", "bool", "int", "auto", "double", "float", "long",
                        "unsigned", "char", "short", "size_t", "string",
                        "uint32_t", "uint64_t", "int32_t", "int64_t"}


class CrossContext:
    """Merged cross-file knowledge + configuration, shared by every check."""

    def __init__(self, config: dict):
        self.config = config
        self.unordered_names: Set[str] = set()
        self.result_fns: Set[str] = set()
        self.field_owners: Dict[str, str] = {}  # name -> owner ('' = shared)
        self.ambiguous_fields: Set[str] = set()
        self.sinks: Set[str] = set(config.get("callback_sinks", []))
        self.arena_types: Set[str] = set(config.get("arena_types", []))
        self.shard_owners: Set[str] = set(config.get("shard_owners", []))
        self.shard_roots: Tuple[str, ...] = tuple(config.get("shard_roots", []))
        self.mutating_methods: Set[str] = set(config.get("mutating_methods", []))
        self.mutating_prefixes: Tuple[str, ...] = tuple(config.get("mutating_prefixes", []))

    def add_field_owner(self, name: str, owner: Optional[str]) -> None:
        if owner is None:
            return
        if name in self.field_owners and self.field_owners[name] != owner:
            self.ambiguous_fields.add(name)
        else:
            self.field_owners[name] = owner

    def owner_of_field(self, name: str) -> Optional[str]:
        if name in self.ambiguous_fields:
            return None
        return self.field_owners.get(name)


# ---------------------------------------------------------------- harvesting


def harvest(sf: SourceFile, symtab: SymbolTable, module: Optional[str]) -> dict:
    """Everything other files' checks may need from this one (JSON-safe)."""
    from .graph import quoted_includes

    unordered = sorted({
        d.name for scope in symtab.scopes for d in scope.decls.values()
        if d.is_unordered
    })
    result_fns = sorted({name for name, _ in symtab.result_functions})
    other_fns = sorted(_nonresult_function_names(sf, symtab))
    field_owners = {}
    for scope in symtab.scopes:
        if scope.kind != "class":
            continue
        for d in scope.decls.values():
            if d.shard_owner is not None:
                field_owners[d.name] = d.shard_owner
    return {
        "module": module,
        "includes": [[p, line] for p, line in quoted_includes(sf)],
        "unordered_names": unordered,
        "result_fns": result_fns,
        "other_fns": other_fns,
        "field_owners": field_owners,
        "allow": {str(k): sorted(v) for k, v in sf.allow.items()},
        "allow_file": sorted(sf.allow_file),
    }


def _nonresult_function_names(sf: SourceFile, symtab: SymbolTable) -> Set[str]:
    """Names declared with a non-Result return type — used to drop ambiguous
    overloads from the discarded-result set, as the regex engine did."""
    out: Set[str] = set()
    tokens = sf.tokens
    result_lines = {line for _, line in symtab.result_functions}
    for i in range(1, len(tokens) - 1):
        t = tokens[i]
        if t.kind != "id" or t.pp:
            continue
        nxt = tokens[i + 1]
        if nxt.kind != "punct" or nxt.value != "(":
            continue
        prev = tokens[i - 1]
        if prev.kind != "id":
            continue
        if t.line in result_lines:
            continue
        if prev.value in BUILTIN_RETURN_TYPES or (prev.value[0].isupper()
                                                  and prev.value != "Result"):
            out.add(t.value)
    return out


# ------------------------------------------------------------------- helpers


def _finding(sf: SourceFile, line: int, check: str, message: str) -> Finding:
    return Finding(sf.path, line, check, message)


def _sink_lambdas(sf: SourceFile, symtab: SymbolTable,
                  cross: CrossContext) -> List[Tuple[Scope, int]]:
    """Lambda scopes passed directly to a deferred-execution sink, paired
    with the sink call's token index."""
    out: List[Tuple[Scope, int]] = []
    tokens = sf.tokens
    lambdas = [s for s in symtab.scopes if s.kind == "lambda" and s.capture_range]
    for i, t in enumerate(tokens):
        if t.kind != "id" or t.value not in cross.sinks:
            continue
        if i + 1 >= len(tokens) or tokens[i + 1].kind != "punct" \
                or tokens[i + 1].value != "(":
            continue
        close = match_forward(tokens, i + 1, "(", ")")
        host = symtab.scope_at(i)
        for lam in lambdas:
            cs = lam.capture_range[0]  # type: ignore[index]
            if i + 1 < cs < close and lam.parent is host:
                out.append((lam, i))
    return out


def _parse_captures(sf: SourceFile, lam: Scope) -> List[List[int]]:
    """Capture list split at top-level commas; each entry is token indices."""
    tokens = sf.tokens
    cs, ce = lam.capture_range  # type: ignore[misc]
    segs: List[List[int]] = []
    cur: List[int] = []
    depth = 0
    for k in range(cs + 1, ce):
        t = tokens[k]
        if t.kind == "punct":
            if t.value in ("(", "[", "{", "<"):
                depth += 1
            elif t.value in (")", "]", "}", ">"):
                depth -= 1
            elif t.value == "," and depth == 0:
                segs.append(cur)
                cur = []
                continue
        cur.append(k)
    if cur:
        segs.append(cur)
    return segs


def _is_arena_decl(decl: Optional[Decl], cross: CrossContext) -> bool:
    return decl is not None and any(t in cross.arena_types for t in decl.type_ids)


# -------------------------------------------------------------------- checks


def check_wallclock(sf: SourceFile, symtab: SymbolTable,
                    cross: CrossContext) -> List[Finding]:
    findings = []
    tokens = sf.tokens
    n = len(tokens)
    for i, t in enumerate(tokens):
        if t.kind != "id" or t.pp:
            continue
        v = t.value
        prev = tokens[i - 1] if i > 0 else None
        nxt = tokens[i + 1] if i + 1 < n else None
        called = nxt is not None and nxt.kind == "punct" and nxt.value == "("
        hit = False
        if v == "random_device" or v in CLOCK_IDS:
            hit = True
        elif v in ("gettimeofday", "clock_gettime", "srand") and called:
            hit = True
        elif v == "rand" and called:
            # `std::rand(` and bare `rand(`; not `x.rand(`, not `int rand(`.
            if prev is None or prev.kind == "punct" and prev.value == "::":
                hit = True
            elif prev.kind == "punct" and prev.value not in (".", "->"):
                hit = True
        elif v in ("time", "clock") and called:
            if prev is not None and prev.kind == "punct" and prev.value == "::":
                qual = tokens[i - 2] if i >= 2 else None
                hit = qual is not None and qual.kind == "id" and qual.value == "std"
            elif prev is None or (prev.kind == "punct"
                                  and prev.value not in (".", "->")):
                # `double time(...)` / `auto time(...)` declarations have an
                # identifier (the return type) directly before the name.
                hit = v == "time"  # bare `clock(` stays legal (POSIX clock() unused)
        if hit:
            findings.append(_finding(
                sf, t.line, "wallclock",
                f"wall-clock/ambient-randomness call `{v}` — simulated paths "
                "must use sim::Simulator time or sim::Rng; annotate the rare "
                "legitimate site with `// ape-lint: allow(wallclock)`"))
    return findings


def _chain_base(sf: SourceFile, idxs: List[int]) -> Optional[str]:
    """Base identifier of a member chain: last id joined by . -> ::, after
    stripping leading * & ( and trailing )."""
    tokens = sf.tokens
    ids: List[str] = []
    expect_id = True
    for k in idxs:
        t = tokens[k]
        if t.kind == "punct" and t.value in ("*", "&", "(", ")"):
            continue
        if expect_id and t.kind == "id":
            ids.append(t.value)
            expect_id = False
        elif not expect_id and t.kind == "punct" and t.value in (".", "->", "::"):
            expect_id = True
        else:
            break
    return ids[-1] if ids else None


def _resolves_unordered(name: str, scope: Scope, symtab: SymbolTable,
                        cross: CrossContext) -> bool:
    decl = symtab.resolve(name, scope)
    if decl is not None:
        if decl.is_unordered:
            return True
        if decl.alias_chain:
            target = symtab.resolve(decl.alias_chain[-1], scope)
            if target is not None and target.is_unordered:
                return True
            if decl.alias_chain[-1] in cross.unordered_names:
                return True
        return False
    return name in cross.unordered_names


def check_unordered_iter(sf: SourceFile, symtab: SymbolTable,
                         cross: CrossContext) -> List[Finding]:
    findings = []
    tokens = sf.tokens
    n = len(tokens)
    for i, t in enumerate(tokens):
        if t.kind != "id" or t.pp:
            continue
        if t.value == "for" and i + 1 < n and tokens[i + 1].kind == "punct" \
                and tokens[i + 1].value == "(":
            close = match_forward(tokens, i + 1, "(", ")")
            colon = None
            depth = 0
            for k in range(i + 2, close):
                tk = tokens[k]
                if tk.kind == "punct":
                    if tk.value in ("(", "[", "{"):
                        depth += 1
                    elif tk.value in (")", "]", "}"):
                        depth -= 1
                    elif tk.value == ":" and depth == 0:
                        colon = k
                        break
            if colon is None:
                continue
            base = _chain_base(sf, list(range(colon + 1, close)))
            if base is None:
                continue
            if _resolves_unordered(base, symtab.scope_at(i), symtab, cross):
                findings.append(_finding(
                    sf, t.line, "unordered-iter",
                    f"range-for over unordered container `{base}` — iteration "
                    "order is hash-seed dependent; use common::sorted_items "
                    "(src/common/ordered.hpp) or an ordered container"))
        elif t.value in ("begin", "cbegin") and i >= 2 and i + 1 < n \
                and tokens[i + 1].kind == "punct" and tokens[i + 1].value == "(" \
                and tokens[i - 1].kind == "punct" and tokens[i - 1].value == "." \
                and tokens[i - 2].kind == "id":
            name = tokens[i - 2].value
            if _resolves_unordered(name, symtab.scope_at(i), symtab, cross):
                findings.append(_finding(
                    sf, tokens[i - 2].line, "unordered-iter",
                    f"iterator walk over unordered container `{name}` — "
                    "iteration order is hash-seed dependent; use common::"
                    "sorted_items (src/common/ordered.hpp) or an ordered "
                    "container"))
    return findings


def check_discarded_result(sf: SourceFile, symtab: SymbolTable,
                           cross: CrossContext) -> List[Finding]:
    findings: List[Finding] = []
    if not cross.result_fns:
        return findings
    tokens = sf.tokens
    for scope in symtab.scopes:
        if scope.kind not in ("function", "lambda", "block"):
            continue
        for stmt in symtab._direct_statements(scope):
            if not stmt:
                continue
            first = tokens[stmt[0]]
            if first.kind != "id" or first.value in STMT_SKIP_FIRST \
                    or first.value.startswith(("EXPECT_", "ASSERT_")):
                continue
            # Optional receiver chain: id (. | -> | ::) repeated.
            k = 0
            while k + 2 < len(stmt) and tokens[stmt[k]].kind == "id" \
                    and tokens[stmt[k + 1]].kind == "punct" \
                    and tokens[stmt[k + 1]].value in (".", "->", "::"):
                k += 2
            if k >= len(stmt):
                continue
            name_tok = tokens[stmt[k]]
            if name_tok.kind != "id" or name_tok.value not in cross.result_fns:
                continue
            if k + 1 >= len(stmt) or tokens[stmt[k + 1]].value != "(":
                continue
            depth = 0
            close_pos = None
            for pos in range(k + 1, len(stmt)):
                v = tokens[stmt[pos]].value
                if tokens[stmt[pos]].kind == "punct":
                    if v == "(":
                        depth += 1
                    elif v == ")":
                        depth -= 1
                        if depth == 0:
                            close_pos = pos
                            break
            if close_pos is None or close_pos != len(stmt) - 1:
                continue  # something consumes the value
            findings.append(_finding(
                sf, name_tok.line, "discarded-result",
                f"call of Result-returning `{name_tok.value}` discards the "
                "result — check ok()/error() or cast via static_cast<void> "
                "with an explanatory comment"))
    return findings


def check_raw_seconds(sf: SourceFile, symtab: SymbolTable,
                      cross: CrossContext) -> List[Finding]:
    findings = []
    tokens = sf.tokens
    n = len(tokens)
    for i, t in enumerate(tokens):
        if t.kind != "id" or t.value != "double" or t.pp:
            continue
        if i + 2 >= n:
            continue
        name = tokens[i + 1]
        after = tokens[i + 2]
        if name.kind != "id" or after.kind != "punct" \
                or after.value not in (";", "=", ",", ")", "{"):
            continue
        if "per_s" in name.value or not RAW_SECONDS_SUFFIX.search(name.value):
            continue
        findings.append(_finding(
            sf, t.line, "raw-seconds",
            "raw `double` seconds variable — prefer sim::Duration/sim::Time "
            "(src/sim/time.hpp); annotate deliberate plain-unit math with "
            "`// ape-lint: allow(raw-seconds)`"))
    return findings


def check_span_leak(sf: SourceFile, symtab: SymbolTable,
                    cross: CrossContext) -> List[Finding]:
    findings = []
    tokens = sf.tokens
    n = len(tokens)
    i = 0
    while i + 3 < n:
        t = tokens[i]
        if t.kind == "id" and tokens[i + 1].kind == "punct" \
                and tokens[i + 1].value == "=":
            # name = [chain] open|open_root (
            k = i + 2
            while k + 1 < n and tokens[k].kind == "id" \
                    and tokens[k + 1].kind == "punct" \
                    and tokens[k + 1].value in (".", "->", "::"):
                k += 2
            if k + 1 < n and tokens[k].kind == "id" \
                    and tokens[k].value in ("open", "open_root") \
                    and tokens[k + 1].kind == "punct" and tokens[k + 1].value == "(":
                # end of the opening statement
                depth = 0
                j = k + 1
                while j < n:
                    v = tokens[j]
                    if v.kind == "punct":
                        if v.value == "(":
                            depth += 1
                        elif v.value == ")":
                            depth -= 1
                        elif v.value == ";" and depth == 0:
                            break
                    j += 1
                name = t.value
                used = any(tokens[m].kind == "id" and tokens[m].value == name
                           for m in range(j, n))
                if not used:
                    findings.append(_finding(
                        sf, t.line, "span-leak",
                        f"span context `{name}` is never used after open() — "
                        "it can never be closed, the span stays open forever, "
                        "and validate_spans() rejects the trace; close it or "
                        "hand it to the completion path"))
                i = j
                continue
        i += 1
    return findings


REGISTRY_READS = {"counters", "gauges", "histograms", "counter", "gauge", "histogram"}


def check_cursor_bypass(sf: SourceFile, symtab: SymbolTable,
                        cross: CrossContext) -> List[Finding]:
    findings = []
    tokens = sf.tokens
    for scope in symtab.scopes:
        if scope.kind != "function" or not scope.name.startswith(("capture", "scrape")):
            continue
        end = scope.close if scope.close >= 0 else len(tokens)
        for k in range(scope.open + 1, end - 2):
            t = tokens[k]
            if t.kind == "punct" and t.value in (".", "->") \
                    and tokens[k + 1].kind == "id" \
                    and tokens[k + 1].value in REGISTRY_READS \
                    and k + 2 < end and tokens[k + 2].kind == "punct" \
                    and tokens[k + 2].value == "(" \
                    and k >= 1 and tokens[k - 1].kind == "id":
                findings.append(_finding(
                    sf, tokens[k + 1].line, "cursor-bypass",
                    f"direct MetricsRegistry read `.{tokens[k + 1].value}(...)` "
                    f"inside window-capture path `{scope.name}` — route reads "
                    "through the Timeline DeltaCursor (advance()) so every "
                    "increment lands in exactly one window; annotate a "
                    "deliberate non-windowed read with "
                    "`// ape-lint: allow(cursor-bypass)`"))
    return findings


HOT_METRIC_NAMES = {"counter", "gauge", "histogram", "count"}
STRING_STREAMS = {"istringstream", "ostringstream", "stringstream"}
# Renders a UrlHash into a heap string: 16 characters, one past libstdc++'s
# 15-byte small-string buffer.
KEY_RENDERS = {"hash_to_string"}


def _is_free_call(tokens, i: int) -> bool:
    """`name(` at tokens[i] calls the free function: not a member call
    (`x.name(`, `p->name(`) and not a declaration (`Type name(`)."""
    if i + 1 >= len(tokens) or tokens[i + 1].kind != "punct" or tokens[i + 1].value != "(":
        return False
    prev = tokens[i - 1] if i > 0 else None
    if prev is None:
        return True
    if prev.kind == "punct" and prev.value in (".", "->"):
        return False
    return not (prev.kind == "id" and prev.value != "return")


def check_hot_alloc(sf: SourceFile, symtab: SymbolTable,
                    cross: CrossContext) -> List[Finding]:
    findings: List[Finding] = []
    if not sf.hot_path:
        return findings
    tokens = sf.tokens
    n = len(tokens)
    for i, t in enumerate(tokens):
        if t.pp:
            continue
        if t.kind == "id" and t.value == "new":
            nxt = tokens[i + 1] if i + 1 < n else None
            prev = tokens[i - 1] if i > 0 else None
            if nxt is not None and nxt.kind == "punct" and nxt.value == "(":
                continue  # placement new constructs into arena storage
            if prev is not None and prev.kind == "id" and prev.value == "operator":
                continue
            findings.append(_finding(
                sf, t.line, "hot-alloc",
                "heap allocation in a hot-path file — recycle through an arena "
                "(sim::Simulator slots, net::Network in-flight datagrams) or "
                "keep state inline in sim::SmallFn; annotate a deliberate "
                "cold-path allocation with `// ape-lint: allow(hot-alloc)`"))
        elif t.kind == "id" and t.value in ("make_unique", "make_shared") \
                and i + 1 < n and tokens[i + 1].kind == "punct" \
                and tokens[i + 1].value == "<":
            findings.append(_finding(
                sf, t.line, "hot-alloc",
                "make_unique/make_shared in a hot-path file — recycle through "
                "an arena or keep state inline; annotate a deliberate cold-path "
                "allocation with `// ape-lint: allow(hot-alloc)`"))
        elif t.kind == "id" and t.value in STRING_STREAMS:
            findings.append(_finding(
                sf, t.line, "hot-alloc",
                f"`{t.value}` in a hot-path file — a string stream allocates "
                "its buffer and takes the locale on every construction; parse "
                "in place over std::string_view (common/parse.hpp) and format "
                "with std::to_chars; annotate a deliberate cold-path use with "
                "`// ape-lint: allow(hot-alloc)`"))
        elif t.kind == "id" and t.value in KEY_RENDERS and _is_free_call(tokens, i):
            findings.append(_finding(
                sf, t.line, "hot-alloc",
                f"`{t.value}(...)` in a hot-path file — it renders a cache key "
                "into a heap string; keep stores, policies and maps keyed by "
                "the UrlHash itself, hash or append the stack form "
                "(render_url_hash) where text is needed, and annotate a "
                "text boundary (span key, wire line, export) with "
                "`// ape-lint: allow(hot-alloc)`"))
        elif t.kind == "punct" and t.value in (".", "->") and i + 3 < n \
                and tokens[i + 1].kind == "id" \
                and tokens[i + 1].value in HOT_METRIC_NAMES \
                and tokens[i + 2].kind == "punct" and tokens[i + 2].value == "(" \
                and tokens[i + 3].kind == "str":
            findings.append(_finding(
                sf, tokens[i + 1].line, "hot-alloc",
                f"by-name metric lookup `.{tokens[i + 1].value}(\"...\")` in a "
                "hot-path file — resolve once into an obs::CounterHandle/"
                "HistogramHandle at construction; annotate a deliberate "
                "snapshot-time lookup with `// ape-lint: allow(hot-alloc)`"))
    return findings


# ----------------------------------------------------------- throwing parse

STO_FAMILY = {"stoi", "stol", "stoll", "stoul", "stoull", "stof", "stod", "stold"}


def check_throwing_parse(sf: SourceFile, symtab: SymbolTable,
                         cross: CrossContext) -> List[Finding]:
    """Calls of std::stoi and its siblings, qualified or not.  They throw on
    junk and on overflow, and nothing in src/ catches, so one malformed
    header or datagram would abort a whole run.  Member calls (`x.stoi(`)
    and declarations (`int stoi(`) are other functions and stay legal."""
    findings: List[Finding] = []
    tokens = sf.tokens
    n = len(tokens)
    for i, t in enumerate(tokens):
        if t.kind != "id" or t.pp or t.value not in STO_FAMILY:
            continue
        nxt = tokens[i + 1] if i + 1 < n else None
        if nxt is None or nxt.kind != "punct" or nxt.value != "(":
            continue
        prev = tokens[i - 1] if i > 0 else None
        if prev is not None and prev.kind == "punct" and prev.value in (".", "->"):
            continue
        if prev is not None and prev.kind == "punct" and prev.value == "::":
            qual = tokens[i - 2] if i >= 2 else None
            if qual is None or qual.kind != "id" or qual.value != "std":
                continue
        elif prev is not None and prev.kind == "id" and prev.value != "return":
            continue  # `int stoi(` declares a function of that name
        findings.append(_finding(
            sf, t.line, "throwing-parse",
            f"`{t.value}` throws std::invalid_argument/std::out_of_range on "
            "malformed text — parse simulated-network numbers with "
            "ape::parse_int (common/parse.hpp), which returns a Result; "
            "annotate a trusted-input site with `// ape-lint: allow(throwing-parse)`"))
    return findings


# --------------------------------------------------------------- event kind

SCHEDULE_SINKS = {"schedule_at", "schedule_in", "submit"}


def check_event_kind(sf: SourceFile, symtab: SymbolTable,
                     cross: CrossContext) -> List[Finding]:
    """Member calls to the scheduling sinks in hot-path files must carry a
    kind tag — an APE_EVT("owner.subsystem.verb") literal or a forwarded
    `kind`-named id — so the profiling plane can attribute their cost.
    Qualified definitions (`Simulator::schedule_at(...)`) and bare calls
    are not call sites and stay exempt."""
    findings: List[Finding] = []
    if not sf.hot_path:
        return findings
    tokens = sf.tokens
    n = len(tokens)
    for i, t in enumerate(tokens):
        if t.pp or t.kind != "id" or t.value not in SCHEDULE_SINKS:
            continue
        prev = tokens[i - 1] if i > 0 else None
        if prev is None or prev.kind != "punct" or prev.value not in (".", "->"):
            continue
        if i + 1 >= n or tokens[i + 1].kind != "punct" or tokens[i + 1].value != "(":
            continue
        close = match_forward(tokens, i + 1, "(", ")")
        tagged = any(a.kind == "id" and
                     (a.value == "APE_EVT" or "kind" in a.value.lower())
                     for a in tokens[i + 2:close])
        if not tagged:
            findings.append(_finding(
                sf, t.line, "event-kind",
                f"`.{t.value}(...)` in a hot-path file without a kind tag — "
                'append APE_EVT("owner.subsystem.verb") (or forward a '
                "KindId argument) so the profiling plane can attribute the "
                "event's cost; annotate a deliberately untagged site with "
                "`// ape-lint: allow(event-kind)`"))
    return findings


# ----------------------------------------------------------- shard ownership


def _shard_participating(sf: SourceFile, module: Optional[str],
                         cross: CrossContext) -> bool:
    if module in cross.shard_roots:
        return True
    return any(t.kind == "id" and t.value.startswith("APE_SHARD_")
               for t in sf.tokens)


def _mutation_after(sf: SourceFile, i: int) -> bool:
    """Does the member access whose field name sits at token i mutate it?
    Handles `f_ = v`, `f_ += v`, `f_++`, `++f_` (caller checks prev),
    `f_[k] = v`, `f_.insert(...)`, `f_->method(...)` chains one level."""
    tokens = sf.tokens
    n = len(tokens)
    k = i + 1
    if k < n and tokens[k].kind == "punct" and tokens[k].value == "[":
        k = match_forward(tokens, k, "[", "]") + 1
    if k >= n:
        return False
    t = tokens[k]
    if t.kind == "punct" and t.value in ASSIGN_OPS:
        return True
    if t.kind == "punct" and t.value in ("++", "--"):
        return True
    return False


def _mutating_call_after(sf: SourceFile, i: int, cross: CrossContext) -> bool:
    tokens = sf.tokens
    n = len(tokens)
    k = i + 1
    if k < n and tokens[k].kind == "punct" and tokens[k].value == "[":
        k = match_forward(tokens, k, "[", "]") + 1
    if k + 2 < n and tokens[k].kind == "punct" and tokens[k].value in (".", "->") \
            and tokens[k + 1].kind == "id" and tokens[k + 2].kind == "punct" \
            and tokens[k + 2].value == "(":
        m = tokens[k + 1].value
        return m in cross.mutating_methods or m.startswith(cross.mutating_prefixes)
    return False


def check_shard_ownership(sf: SourceFile, symtab: SymbolTable,
                          cross: CrossContext,
                          module: Optional[str]) -> List[Finding]:
    findings: List[Finding] = []
    participating = _shard_participating(sf, module, cross)

    for scope in symtab.scopes:
        if scope.kind != "class":
            continue
        state_fields = [d for d in scope.decls.values()
                        if d.name.endswith("_") and not d.is_static]
        if scope.shard_context is None:
            if participating and state_fields:
                findings.append(_finding(
                    sf, scope.line, "shard-ownership",
                    f"class `{scope.name}` declares runtime state "
                    f"({state_fields[0].name}, ...) but no APE_SHARD_CONTEXT — "
                    "every stateful class in a shard-swept subsystem must name "
                    "its owning shard (src/common/shard.hpp)"))
            continue
        ctx = scope.shard_context
        if ctx not in cross.shard_owners:
            findings.append(_finding(
                sf, scope.shard_context_line, "shard-ownership",
                f"unknown shard owner `{ctx}` — the committed owner set is "
                f"{sorted(cross.shard_owners)} (tools/lint/lint_config.json)"))
        for d in state_fields:
            if d.shard_owner is None:
                findings.append(_finding(
                    sf, d.line, "shard-ownership",
                    f"field `{d.name}` of `{scope.name}` (shard `{ctx}`) has no "
                    "ownership annotation — mark it APE_SHARD_LOCAL("
                    f"{ctx}) or APE_SHARD_SHARED"))
            elif d.shard_owner != "" and d.shard_owner != ctx:
                findings.append(_finding(
                    sf, d.line, "shard-ownership",
                    f"field `{d.name}` is annotated APE_SHARD_LOCAL("
                    f"{d.shard_owner}) inside shard context `{ctx}` — "
                    "a class's local state belongs to its own shard; "
                    "cross-shard state must be APE_SHARD_SHARED"))
            elif d.shard_owner != "" and d.shard_owner not in cross.shard_owners:
                findings.append(_finding(
                    sf, d.line, "shard-ownership",
                    f"unknown shard owner `{d.shard_owner}` on field "
                    f"`{d.name}` — the committed owner set is "
                    f"{sorted(cross.shard_owners)}"))

    # Cross-shard mutation from deferred callbacks.
    tokens = sf.tokens
    for lam, _call_idx in _sink_lambdas(sf, symtab, cross):
        host_class = lam.enclosing("class")
        ctx = host_class.shard_context if host_class is not None else None
        if ctx is None:
            continue
        body_start, body_end = lam.open, (lam.close if lam.close >= 0 else len(tokens))
        for k in range(body_start + 1, body_end):
            t = tokens[k]
            if t.kind != "id" or not t.value.endswith("_"):
                continue
            prev = tokens[k - 1] if k > 0 else None
            owner: Optional[str] = None
            via = t.value
            if prev is not None and prev.kind == "punct" and prev.value in (".", "->"):
                # qualified access: receiver decides the namespace
                recv = tokens[k - 2] if k >= 2 else None
                if recv is not None and recv.kind == "id" and recv.value == "this" \
                        and host_class is not None:
                    d = host_class.decls.get(t.value)
                    owner = d.shard_owner if d is not None else None
                else:
                    owner = cross.owner_of_field(t.value)
            else:
                d = host_class.decls.get(t.value) if host_class is not None else None
                if d is not None:
                    owner = d.shard_owner
                else:
                    owner = cross.owner_of_field(t.value)
            if owner is None or owner == "" or owner == ctx:
                continue
            mutated = _mutation_after(sf, k) or _mutating_call_after(sf, k, cross)
            if not mutated and prev is not None and prev.kind == "punct" \
                    and prev.value in ("++", "--"):
                mutated = True
            if mutated:
                findings.append(_finding(
                    sf, t.line, "shard-ownership",
                    f"callback scheduled from shard `{ctx}` mutates "
                    f"`{via}`, which is APE_SHARD_LOCAL({owner}) — cross-shard "
                    "mutation is illegal under the parallel-shard contract; "
                    "route it through the owner's queue or mark the state "
                    "APE_SHARD_SHARED with a synchronization story"))
    return findings


# --------------------------------------------------------- callback captures


def check_callback_capture(sf: SourceFile, symtab: SymbolTable,
                           cross: CrossContext) -> List[Finding]:
    findings: List[Finding] = []
    tokens = sf.tokens
    for lam, call_idx in _sink_lambdas(sf, symtab, cross):
        sink = tokens[call_idx].value
        outer = lam.parent if lam.parent is not None else symtab.file_scope
        for seg in _parse_captures(sf, lam):
            vals = [tokens[k].value for k in seg]
            line = tokens[seg[0]].line
            if vals == ["&"]:
                findings.append(_finding(
                    sf, line, "callback-capture",
                    f"default by-reference capture `[&]` handed to deferred "
                    f"sink `{sink}` — the callback outlives this stack frame; "
                    "capture explicitly (by value, `this`, or a "
                    "generation-checked EventId)"))
                continue
            if vals in (["="], ["this"]) or vals == ["*", "this"]:
                continue
            if vals[0] == "&" and len(seg) >= 2 and tokens[seg[1]].kind == "id":
                name = tokens[seg[1]].value
                decl = symtab.resolve_through_alias(name, outer)
                if _is_arena_decl(decl, cross):
                    findings.append(_finding(
                        sf, line, "callback-capture",
                        f"`&{name}` captures a reference to arena-slot state "
                        f"({'/'.join(decl.type_ids)}) into deferred sink "
                        f"`{sink}` — the slot is recycled before the callback "
                        "fires; copy the value or carry a generation-checked "
                        "id instead"))
                continue
            # init capture `x = &slot` or plain value capture of a raw pointer
            eq_positions = [p for p, v in enumerate(vals) if v == "="]
            if eq_positions:
                rhs = seg[eq_positions[0] + 1:]
                if rhs and tokens[rhs[0]].kind == "punct" and tokens[rhs[0]].value == "&" \
                        and len(rhs) >= 2 and tokens[rhs[1]].kind == "id":
                    target = symtab.resolve_through_alias(tokens[rhs[1]].value, outer)
                    if _is_arena_decl(target, cross):
                        findings.append(_finding(
                            sf, line, "callback-capture",
                            f"init-capture takes the address of arena-slot state "
                            f"`{tokens[rhs[1]].value}` into deferred sink `{sink}` "
                            "— the slot is recycled before the callback fires; "
                            "copy the value or carry a generation-checked id"))
                continue
            if len(seg) == 1 and tokens[seg[0]].kind == "id":
                decl = symtab.resolve_through_alias(vals[0], outer)
                if decl is not None and decl.is_ptr and _is_arena_decl(decl, cross):
                    findings.append(_finding(
                        sf, line, "callback-capture",
                        f"`{vals[0]}` is a raw pointer to arena-slot state "
                        f"({'/'.join(decl.type_ids)}) captured into deferred "
                        f"sink `{sink}` — the slot is recycled before the "
                        "callback fires; copy the value or carry a "
                        "generation-checked id"))
    return findings


# ------------------------------------------------------------------ registry


def run_per_file_checks(sf: SourceFile, symtab: SymbolTable, cross: CrossContext,
                        module: Optional[str]) -> List[Finding]:
    raw: List[Finding] = []
    raw += check_wallclock(sf, symtab, cross)
    raw += check_unordered_iter(sf, symtab, cross)
    raw += check_discarded_result(sf, symtab, cross)
    raw += check_raw_seconds(sf, symtab, cross)
    raw += check_span_leak(sf, symtab, cross)
    raw += check_cursor_bypass(sf, symtab, cross)
    raw += check_hot_alloc(sf, symtab, cross)
    raw += check_shard_ownership(sf, symtab, cross, module)
    raw += check_callback_capture(sf, symtab, cross)
    raw += check_event_kind(sf, symtab, cross)
    raw += check_throwing_parse(sf, symtab, cross)
    out: List[Finding] = []
    seen = set()
    for f in raw:
        if sf.allowed(f.line, f.check):
            continue
        key = (f.line, f.check)
        if key in seen:
            continue
        seen.add(key)
        out.append(f)
    out.sort(key=lambda f: (f.line, f.check))
    return out
