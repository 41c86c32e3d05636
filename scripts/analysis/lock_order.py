#!/usr/bin/env python3
"""Static lock-order analysis for couchkv (stdlib only — no clang tooling).

The runtime half of lockdep (src/common/lockdep.{h,cc}, -DCOUCHKV_LOCKDEP=ON)
observes the acquisition-order graph tests actually execute. This script is
the static half: it recovers the DECLARED lock hierarchy from the source —

  * lock-class declarations:   Mutex mu_{"cluster.node"};
                               SharedMutex mu_{"views.index"};
    (flags such as lockdep::kHotPath after the name are parsed too)
  * explicit order decls:      COUCHKV_LOCK_ORDER("cluster.node", "kv.hash_table");
  * TSA order attributes:      Mutex file_mu_ ACQUIRED_AFTER(op_mu_){...};
  * guard-acquisition sites:   a LockGuard/UniqueLock/...constructed while
                               another guard is live in an enclosing scope
                               of the same function body
  * REQUIRES(mu) functions that construct a guard on another mutex

— builds the hierarchy DAG, and FAILS on:

  * any cycle in the declared+derived (+observed, when a dump is given) graph
  * unnamed/unregistered Mutex or SharedMutex declarations in src/
  * a lock-owning subsystem with no declared edge (every subsystem must
    state where it sits in the hierarchy)
  * a COUCHKV_LOCK_ORDER naming a lock class that does not exist

With --runtime-dump (a --dump-lock-graph JSON file, or a directory of them
from COUCHKV_LOCKDEP_DUMP_DIR), it cross-checks the declared hierarchy
against the runtime-observed graph: declared edges no test ever exercised
are reported as COVERAGE GAPS (non-fatal — they are the work list for the
torture suites), and observed edges contradicting a declaration fail via
the cycle check on the union graph.

--dot emits a Graphviz graph (subsystem-clustered; solid = declared and
observed, dashed = declared only / coverage gap, dotted = observed only)
— the committed copy lives in DESIGN.md's lock-hierarchy section.

--self-test runs the analyzer against the seeded fixtures in
scripts/analysis/testdata/ (a cycle that MUST fail, an unnamed mutex that
MUST fail, a clean hierarchy that MUST pass) and exits non-zero if the
analyzer itself has gone blind.
"""

import argparse
import json
import os
import re
import sys
from collections import defaultdict

# Files allowed to contain raw/unnamed synchronization state: the wrapper
# itself and the detectors (which must not instrument their own locks —
# the hooks would recurse).
EXEMPT_FILES = {
    "common/synchronization.h",
    "common/lockdep.h",
    "common/lockdep.cc",
}

# Declared edges that are POLICY, not nesting any test exercises: they pin a
# class to a position in the hierarchy so future code cannot introduce the
# reverse order, but the forward acquisition deliberately never happens (or
# happens only on cold error paths no torture run visits). The runtime
# cross-check credits them as covered instead of listing them as gaps — a
# gap line is a work item ("write the missing test"), and these have none.
POLICY_EDGES = {
    # logging.stderr is a leaf by fiat: LOG_* may run while holding any
    # lock, and these two pins document the only callers that log under a
    # lock on cold paths (health-probe failures, client reconnects). The
    # happy path never logs there, so no test observes the edge.
    ("cluster.health", "logging.stderr"):
        "leaf-by-fiat: cold error paths log under the lock",
    ("client.wire_client", "logging.stderr"):
        "leaf-by-fiat: cold error paths log under the lock",
    # The query service submits to the shared pool strictly AFTER dropping
    # its own lock (Submit is called lock-free by design); the pin exists
    # so a future refactor cannot invert it into pool -> service.
    ("n1ql.query_service", "thread_pool.pool"):
        "ordering pin: submission is deliberately lock-free",
}

CLASS_NAME_RE = r'[a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+'

# Named declaration:  [mutable] [couchkv::]Mutex var [ATTR(...)]{"class"[, flags]};
DECL_RE = re.compile(
    r'\b(?:mutable\s+)?(?:couchkv::)?(Mutex|SharedMutex)\s+(\w+)\s*'
    r'(ACQUIRED_(?:AFTER|BEFORE)\s*\(([^)]*)\)\s*)?'
    r'\{\s*"(' + CLASS_NAME_RE + r')"\s*(?:,\s*([^}]*?))?\}\s*;')

# Unnamed declaration:  [mutable] [couchkv::]Mutex var [ATTR(...)];
UNNAMED_RE = re.compile(
    r'^\s*(?:mutable\s+)?(?:couchkv::)?(Mutex|SharedMutex)\s+(\w+)\s*'
    r'(?:ACQUIRED_(?:AFTER|BEFORE)\s*\([^)]*\)\s*)?;')

ORDER_RE = re.compile(
    r'COUCHKV_LOCK_ORDER\(\s*"(' + CLASS_NAME_RE + r')"\s*,\s*"('
    + CLASS_NAME_RE + r')"\s*\)')

GUARD_RE = re.compile(
    r'\b(LockGuard|WriterLockGuard|ReaderLockGuard|UniqueLock)\s+'
    r'(\w+)\s*[({]\s*([A-Za-z_][\w>.\-]*?)\s*[)}]')

REQUIRES_RE = re.compile(r'\bREQUIRES(?:_SHARED)?\s*\(([^)]*)\)')

UNLOCK_RE = re.compile(r'\b(\w+)\.Unlock\(\)')


class LockClass:
    def __init__(self, name, kind, file, line):
        self.name = name
        self.kind = kind
        self.files = [(file, line)]
        self.hot = False
        self.nestable = False
        self.vars = set()

    @property
    def subsystem(self):
        return self.name.split(".")[0]


class Analysis:
    def __init__(self):
        self.classes = {}               # name -> LockClass
        self.var_to_class = defaultdict(set)  # (scope_key, var) -> {classes}
        self.var_global = defaultdict(set)    # var -> {class names}
        self.declared = {}              # (from, to) -> "file:line  why"
        self.derived = {}               # (from, to) -> "file:line  why"
        self.observed = set()           # (from, to) from runtime dumps
        self.errors = []
        self.notes = []


def scope_key(path):
    """foo/bar.h and foo/bar.cc share one variable-resolution scope."""
    return os.path.splitext(path)[0]


def strip_comments(text):
    text = re.sub(r'/\*.*?\*/', lambda m: re.sub(r'[^\n]', ' ', m.group(0)),
                  text, flags=re.S)
    return re.sub(r'//[^\n]*', '', text)


def rel(path, root):
    return os.path.relpath(path, root)


def collect_files(root):
    out = []
    for dirpath, _, files in os.walk(root):
        for f in sorted(files):
            if f.endswith((".h", ".cc")):
                out.append(os.path.join(dirpath, f))
    return out


def parse_declarations(an, files, root):
    for path in files:
        r = rel(path, root)
        raw = open(path, encoding="utf-8", errors="replace").read()
        text = strip_comments(raw)
        for m in DECL_RE.finditer(text):
            kind, var, _, attr_args, cls_name, flags = m.groups()
            line = text[:m.start()].count("\n") + 1
            cls = an.classes.get(cls_name)
            if cls is None:
                cls = an.classes[cls_name] = LockClass(cls_name, kind, r, line)
            else:
                cls.files.append((r, line))
            cls.vars.add(var)
            if flags:
                if "kHotPath" in flags:
                    cls.hot = True
                if "kNestable" in flags:
                    cls.nestable = True
            an.var_to_class[(scope_key(r), var)].add(cls_name)
            an.var_global[var].add(cls_name)

        if r in EXEMPT_FILES:
            continue
        for i, line_text in enumerate(text.splitlines(), 1):
            um = UNNAMED_RE.match(line_text)
            if um:
                an.errors.append(
                    f"{r}:{i}: unnamed {um.group(1)} '{um.group(2)}' — every "
                    f"mutex in src/ must register a lockdep lock class at its "
                    f"declaration site (e.g. {um.group(1)} {um.group(2)}"
                    f'{{"subsystem.object"}};)')


def resolve_var(an, r, expr):
    """Maps a lock expression ('mu_', 'this->mu_', 's.delivery_mu',
    'conn->mu') to a lock class name, or None. Ambiguity (several classes
    in the same scope reuse the variable name, e.g. 'mu_') resolves to None
    rather than guessing — a wrong guess could fabricate a false cycle."""
    expr = expr.replace("this->", "")
    leaf = re.split(r'\.|->', expr)[-1].strip("&* ")
    scoped = an.var_to_class.get((scope_key(r), leaf), set())
    if len(scoped) == 1:
        return next(iter(scoped))
    if scoped:
        return None  # ambiguous within this scope
    cands = an.var_global.get(leaf, set())
    if len(cands) == 1:
        return next(iter(cands))
    return None


def parse_order_decls(an, files, root):
    for path in files:
        r = rel(path, root)
        text = strip_comments(open(path, encoding="utf-8",
                                   errors="replace").read())
        for m in ORDER_RE.finditer(text):
            a, b = m.group(1), m.group(2)
            line = text[:m.start()].count("\n") + 1
            an.declared.setdefault((a, b),
                                   f"{r}:{line}  COUCHKV_LOCK_ORDER")
        # ACQUIRED_AFTER/BEFORE on named declarations.
        for m in DECL_RE.finditer(text):
            _, _, attr, attr_args, cls_name, _ = m.groups()
            if not attr or not attr_args:
                continue
            line = text[:m.start()].count("\n") + 1
            for arg in attr_args.split(","):
                other = resolve_var(an, r, arg.strip())
                if other is None:
                    an.notes.append(f"{r}:{line}: cannot resolve "
                                    f"'{arg.strip()}' in {attr.split('(')[0]}")
                    continue
                edge = ((other, cls_name) if "AFTER" in attr
                        else (cls_name, other))
                an.declared.setdefault(
                    edge, f"{r}:{line}  {attr.split('(')[0].strip()}")


def parse_guard_nesting(an, files, root):
    """Derives edges from guard constructions nested within one function
    body: RAII guards live to the end of their scope, so a guard constructed
    while another is live in an enclosing (or the same) scope orders the
    outer class before the inner. Manual UniqueLock::Unlock() pops its
    guard. Best-effort: unresolvable lock expressions are skipped."""
    for path in files:
        r = rel(path, root)
        if r in EXEMPT_FILES:
            continue
        text = strip_comments(open(path, encoding="utf-8",
                                   errors="replace").read())
        active = []  # (brace_depth_at_construction, var, class)
        depth = 0
        for i, line_text in enumerate(text.splitlines(), 1):
            # Entering a new top-level scope resets the tracker (function
            # boundary approximation: depth fell to namespace level).
            for um in UNLOCK_RE.finditer(line_text):
                active = [g for g in active if g[1] != um.group(1)]
            for gm in GUARD_RE.finditer(line_text):
                _, var, expr = gm.groups()
                cls = resolve_var(an, r, expr)
                if cls is None:
                    continue
                for _, _, outer_cls in active:
                    if outer_cls != cls:
                        an.derived.setdefault(
                            (outer_cls, cls), f"{r}:{i}  nested guards")
                active.append((depth, var, cls))
            depth += line_text.count("{") - line_text.count("}")
            active = [g for g in active if g[0] < depth or
                      (g[0] == depth and "{" not in line_text)]
    return


def parse_requires_edges(an, files, root):
    """A function annotated REQUIRES(mu) that constructs a guard on another
    mutex declares mu's class before the guarded class."""
    for path in files:
        r = rel(path, root)
        if r in EXEMPT_FILES:
            continue
        text = strip_comments(open(path, encoding="utf-8",
                                   errors="replace").read())
        lines = text.splitlines()
        for i, line_text in enumerate(lines):
            rm = REQUIRES_RE.search(line_text)
            if not rm:
                continue
            held = [resolve_var(an, r, a.strip())
                    for a in rm.group(1).split(",")]
            held = [h for h in held if h]
            if not held:
                continue
            # Scan the function body: from the next '{' to its matching '}'.
            depth = 0
            started = False
            for j in range(i, min(i + 200, len(lines))):
                body_line = lines[j]
                if not started:
                    if "{" in body_line:
                        started = True
                    elif ";" in body_line:
                        break  # declaration only, no body here
                if started:
                    for gm in GUARD_RE.finditer(body_line):
                        cls = resolve_var(an, r, gm.group(3))
                        if cls:
                            for h in held:
                                if h != cls:
                                    an.derived.setdefault(
                                        (h, cls),
                                        f"{r}:{j + 1}  REQUIRES({h}) + guard")
                    depth += body_line.count("{") - body_line.count("}")
                    if depth <= 0:
                        break


def load_runtime_dumps(an, dump_paths):
    """Merges one or more dump files/directories (repeat --runtime-dump to
    combine, e.g., the plain ctest run with the wire-torture run)."""
    if isinstance(dump_paths, str):
        dump_paths = [dump_paths]
    paths = []
    for dump_path in dump_paths:
        if os.path.isdir(dump_path):
            found = [os.path.join(dump_path, f)
                     for f in sorted(os.listdir(dump_path))
                     if f.endswith(".json")]
            if not found:
                an.errors.append(
                    f"--runtime-dump {dump_path}: no JSON files found")
            paths.extend(found)
        else:
            paths.append(dump_path)
    if not paths:
        an.errors.append("--runtime-dump: no JSON files found")
        return
    seen_classes = set()
    for p in paths:
        try:
            d = json.load(open(p, encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as e:
            an.errors.append(f"--runtime-dump {p}: {e}")
            continue
        for c in d.get("classes", []):
            seen_classes.add(c["name"])
        for e in d.get("edges", []):
            an.observed.add((e["from"], e["to"]))
    an.runtime_classes = seen_classes


def find_cycle(edges):
    """Returns a list of nodes forming a cycle, or None."""
    adj = defaultdict(list)
    for a, b in edges:
        adj[a].append(b)
    WHITE, GREY, BLACK = 0, 1, 2
    color = defaultdict(int)
    parent = {}

    for start in sorted(adj):
        if color[start] != WHITE:
            continue
        stack = [(start, iter(adj[start]))]
        color[start] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    parent[nxt] = node
                    stack.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
                if color[nxt] == GREY:
                    cycle = [nxt, node]
                    p = node
                    while p != nxt:
                        p = parent[p]
                        cycle.append(p)
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[node] = BLACK
                stack.pop()
        # restart loop with next start
    return None


def emit_dot(an, out):
    static_edges = dict(an.declared)
    static_edges.update(an.derived)
    subsystems = defaultdict(list)
    for name, cls in sorted(an.classes.items()):
        subsystems[cls.subsystem].append(cls)
    lines = ["// Generated by scripts/analysis/lock_order.py --dot",
             "// solid = declared+observed, dashed = declared only "
             "(policy edge or coverage gap), dotted = observed only",
             "digraph lock_hierarchy {",
             "  rankdir=TB;",
             '  node [shape=box, fontsize=10];']
    for sub, classes in sorted(subsystems.items()):
        lines.append(f'  subgraph "cluster_{sub}" {{')
        lines.append(f'    label="{sub}"; style=rounded;')
        for cls in classes:
            attrs = ""
            if cls.hot:
                attrs = ' [style=filled, fillcolor="#ffdddd", ' \
                        'xlabel="hot-path"]'
            lines.append(f'    "{cls.name}"{attrs};')
        lines.append("  }")
    # Observed-only edges are drawn only between classes that exist in
    # src/ — test binaries register fixture classes (lockdep_test.*) that
    # would clutter the committed graph. They still count in the cycle
    # check, just not in the rendering.
    all_edges = set(static_edges) | {
        (a, b) for a, b in an.observed
        if a in an.classes and b in an.classes}
    for a, b in sorted(all_edges):
        if (a, b) in static_edges and (a, b) in an.observed:
            style = "solid"
        elif (a, b) in static_edges:
            style = "dashed"
        else:
            style = "dotted"
        lines.append(f'  "{a}" -> "{b}" [style={style}];')
    lines.append("}")
    out.write("\n".join(lines) + "\n")


def run_analysis(root, dump=None, dot=None, verbose=False,
                 require_subsystem_edges=True, out=sys.stdout):
    an = Analysis()
    files = collect_files(root)
    if not files:
        print(f"error: no .h/.cc files under {root}", file=out)
        return 1
    parse_declarations(an, files, root)
    parse_order_decls(an, files, root)
    parse_guard_nesting(an, files, root)
    parse_requires_edges(an, files, root)

    # Order declarations must reference real classes.
    for (a, b), where in sorted(an.declared.items()):
        for name in (a, b):
            if name not in an.classes:
                an.errors.append(
                    f"{where}: lock order references unknown lock class "
                    f'"{name}" (no Mutex/SharedMutex declares it)')

    # A policy edge must shadow a real declaration: a stale entry here would
    # silently credit coverage for an edge nobody declares anymore. Skipped
    # for fixture trees (require_subsystem_edges=False), which declare none
    # of the real edges.
    if require_subsystem_edges:
        for (a, b) in sorted(POLICY_EDGES):
            if (a, b) not in an.declared:
                an.errors.append(
                    f'POLICY_EDGES entry "{a}" -> "{b}" matches no declared '
                    f"edge (remove the stale policy entry)")

    if dump:
        load_runtime_dumps(an, dump)

    static_edges = dict(an.declared)
    for e, why in an.derived.items():
        static_edges.setdefault(e, why)

    # The DAG property is checked over everything we know: declarations,
    # derivations, and (when given) the runtime-observed edges. A declared
    # edge contradicted by an observed one closes a cycle here.
    cycle = find_cycle(set(static_edges) | an.observed)
    if cycle:
        chain = " -> ".join(f'"{c}"' for c in cycle)
        detail = []
        for a, b in zip(cycle, cycle[1:]):
            why = static_edges.get((a, b))
            src = why if why else ("runtime dump" if (a, b) in an.observed
                                   else "?")
            detail.append(f'    "{a}" -> "{b}"   ({src})')
        an.errors.append("lock-order CYCLE (potential deadlock):\n  " +
                         chain + "\n" + "\n".join(detail))

    # Every lock-owning subsystem must place itself in the hierarchy.
    if require_subsystem_edges:
        sub_edges = defaultdict(int)
        for a, b in an.declared:
            if a in an.classes:
                sub_edges[an.classes[a].subsystem] += 1
            if b in an.classes:
                sub_edges[an.classes[b].subsystem] += 1
        for sub in sorted({c.subsystem for c in an.classes.values()}):
            if sub_edges[sub] == 0:
                an.errors.append(
                    f"subsystem '{sub}' owns lock classes but declares no "
                    f"order edge (add a COUCHKV_LOCK_ORDER placing it in "
                    f"the hierarchy)")

    # --- Report -------------------------------------------------------------
    print(f"lock_order: {len(an.classes)} lock classes in "
          f"{len({c.subsystem for c in an.classes.values()})} subsystems, "
          f"{len(an.declared)} declared + "
          f"{len(set(static_edges) - set(an.declared))} derived edges"
          + (f", {len(an.observed)} runtime-observed edges" if dump else ""),
          file=out)

    if verbose:
        for (a, b), why in sorted(static_edges.items()):
            mark = "declared" if (a, b) in an.declared else "derived "
            print(f"  [{mark}] {a} -> {b}   ({why})", file=out)

    if dump:
        covered = an.observed | {e for e in POLICY_EDGES if e in an.declared}
        gaps = sorted(e for e in an.declared if e not in covered)
        policy_credited = sorted(e for e in an.declared
                                 if e in POLICY_EDGES and e not in an.observed)
        extra = sorted(an.observed - set(static_edges))
        per_sub = defaultdict(lambda: [0, 0])
        for (a, b) in an.declared:
            for name in (a, b):
                if name in an.classes:
                    s = an.classes[name].subsystem
                    per_sub[s][0] += 1
                    if (a, b) in covered:
                        per_sub[s][1] += 1
        print("cross-check vs runtime dump (declared edges observed, "
              "per subsystem):", file=out)
        for sub in sorted(per_sub):
            d, o = per_sub[sub]
            print(f"  {sub:12s} {o}/{d} declared edges exercised", file=out)
        if policy_credited:
            print(f"policy edges — {len(policy_credited)} declared edges "
                  f"credited without a runtime observation (see "
                  f"POLICY_EDGES for why each needs no test):", file=out)
            for a, b in policy_credited:
                print(f"  {a} -> {b}   ({POLICY_EDGES[(a, b)]})", file=out)
        if gaps:
            print(f"COVERAGE GAPS — {len(gaps)} declared edges never "
                  f"observed at runtime (add a test that exercises the "
                  f"nesting, or delete a stale declaration):", file=out)
            for a, b in gaps:
                print(f"  {a} -> {b}   ({an.declared[(a, b)]})", file=out)
        if extra and verbose:
            print(f"note: {len(extra)} observed edges have no static "
                  f"declaration (derived coverage is best-effort):",
                  file=out)
            for a, b in extra:
                print(f"  {a} -> {b}", file=out)

    for n in an.notes:
        if verbose:
            print(f"note: {n}", file=out)

    if dot:
        with open(dot, "w", encoding="utf-8") as f:
            emit_dot(an, f)
        print(f"wrote {dot}", file=out)

    if an.errors:
        for e in an.errors:
            print(f"error: {e}", file=out)
        return 1
    print("lock_order OK", file=out)
    return 0


def self_test(script_dir):
    """The analyzer must catch the seeded fixtures; if it stops doing so,
    the lint gate is blind and this fails loudly."""
    import io
    td = os.path.join(script_dir, "testdata")
    failures = []

    buf = io.StringIO()
    rc = run_analysis(os.path.join(td, "cycle"),
                      require_subsystem_edges=False, out=buf)
    if rc == 0 or "CYCLE" not in buf.getvalue():
        failures.append("cycle fixture: expected a lock-order cycle failure, "
                        "got:\n" + buf.getvalue())

    buf = io.StringIO()
    rc = run_analysis(os.path.join(td, "unnamed"),
                      require_subsystem_edges=False, out=buf)
    if rc == 0 or "unnamed" not in buf.getvalue():
        failures.append("unnamed fixture: expected an unnamed-mutex failure, "
                        "got:\n" + buf.getvalue())

    buf = io.StringIO()
    rc = run_analysis(os.path.join(td, "clean"),
                      require_subsystem_edges=False, out=buf)
    if rc != 0:
        failures.append("clean fixture: expected success, got:\n" +
                        buf.getvalue())

    if failures:
        for f in failures:
            print(f"self-test FAILED: {f}", file=sys.stderr)
        return 1
    print("lock_order self-test OK")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", default="src",
                    help="source tree to analyze (default: src)")
    ap.add_argument("--runtime-dump", metavar="PATH", action="append",
                    help="lock-graph JSON file (--dump-lock-graph / "
                         "COUCHKV_LOCKDEP_DUMP) or a directory of them "
                         "(COUCHKV_LOCKDEP_DUMP_DIR) to cross-check against; "
                         "repeat to merge several runs")
    ap.add_argument("--dot", metavar="FILE",
                    help="write a Graphviz rendering of the hierarchy")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the analyzer against the seeded fixtures")
    ap.add_argument("-v", "--verbose", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        return self_test(os.path.dirname(os.path.abspath(__file__)))
    return run_analysis(args.root, dump=args.runtime_dump, dot=args.dot,
                        verbose=args.verbose)


if __name__ == "__main__":
    sys.exit(main())
