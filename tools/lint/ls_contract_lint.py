#!/usr/bin/env python3
"""Contract-enforcement static analysis for the LongSight hot paths.

Walks the compiler's own call graph from annotated roots (see
src/util/annotations.hh) and rejects, at analysis time, the classes of
calls that would break the repo's core guarantees:

  LS_HOT_PATH       -> no heap allocation reachable: operator new /
                       malloc, growing std containers, std::function
                       construction.
  LS_DETERMINISTIC  -> no nondeterminism reachable: rand()/time()/
                       chrono clocks, std::random_device,
                       unordered-container iteration order.
  LS_NO_LOCK        -> no blocking or IO reachable: mutex / condition
                       variable operations, stdio and iostream writes.

Mechanism
---------
There is no libclang in the toolchain image, so the checker leans on
the compiler itself: every TU is recompiled at -O0 with GCC's
-fcallgraph-info=su,da, which emits a VCG call graph per TU with exact
call-site locations (file:line:col) on every edge. Annotation macros
expand to calls to empty marker functions; a function with an edge to
a marker is an annotated root (or an exempt node). The per-TU graphs
are merged on mangled symbol names, so cross-TU reachability (e.g.
decode_pipeline.cc -> kernels.cc) is resolved exactly like the linker
would. Indirect calls (function pointers, std::function dispatch) are
opaque placeholders and are not traversed; hot lambda bodies dispatched
through the thread pool are therefore annotated directly (the
"parallelFor bodies" roots).

The compile/cache/graph-merge machinery is shared with the
parallel-safety race lint (ls_race_lint.py) and lives in callgraph.py.

Violations are reported at the deepest project-source call site on the
offending path, which is where a waiver comment can be placed:

    // LS_LINT_ALLOW(alloc): capacity persists across decode steps

on the call's own line or the line directly above suppresses that one
edge for that one category (alloc | determinism | lock).

Compiles are cached under <build>/lint-cache keyed on a hash of the
preprocessed TU, so incremental runs only recompile what changed; the
cache is pruned of entries for deleted or changed TUs after every
build-tree run, and -v reports hit/miss counts.

Usage:
  ls_contract_lint.py --build-dir BUILD [--json OUT] [--jobs N] [-v]
  ls_contract_lint.py --fixture FILE.cc|DIR [--project-root DIR] [--json OUT]
"""

import argparse
import json
import os
import re
import sys

import callgraph
from callgraph import BUILTIN_PRUNE_MANGLED, EXEMPT_MARKER

# --------------------------------------------------------------------------
# Contract definitions
# --------------------------------------------------------------------------

# Marker functions are identified by mangled name (pretty names carry
# return types and vary with the pretty-printer; mangles do not).
MARKERS = {
    "_ZN9longsight8contract18ls_hot_path_markerEv": "alloc",
    "_ZN9longsight8contract23ls_deterministic_markerEv": "determinism",
    "_ZN9longsight8contract17ls_no_lock_markerEv": "lock",
}

# GCC's call-graph labels carry the return type before the function
# name ("void std::mutex::lock()"); sink patterns therefore match at a
# token boundary anywhere in the label, not only at the start.
BOUND = r"(?:^|[\s*&(,])"

# Allocating operator new by mangled name. _Znwm/_Znam (+ _Znwj/_Znaj
# on 32-bit, + St11align_val_t aligned forms) allocate; every other
# overload (placement, nothrow placement) takes extra arguments and is
# excluded by the exact/anchored match.
MANGLED_ALLOC = re.compile(r"^_Zn[wa][jm](St11align_val_t)?$")

C_ALLOC = {
    "malloc", "calloc", "realloc", "aligned_alloc", "posix_memalign",
    "valloc", "strdup", "strndup",
}

# Growth entry points on allocating std containers. Matching the entry
# point (rather than only the eventual operator new deep inside
# libstdc++) keeps the diagnostic at a call site in project code where
# it can be fixed or waived.
STD_CONTAINER = (
    r"std::(__cxx11::)?(vector|basic_string|deque|list|forward_list|"
    r"map|set|multimap|multiset|unordered_map|unordered_set|"
    r"unordered_multimap|unordered_multiset)<"
)
ALLOC_ENTRY = re.compile(
    BOUND + STD_CONTAINER + r".*>::("
    r"push_back|emplace_back|push_front|emplace_front|resize|reserve|"
    # "[<(" not "(": allocating members taking iterator pairs (insert,
    # assign, append) are member TEMPLATES and demangle with their
    # template arguments, e.g. vector<float>::insert<float const*, void>.
    r"insert|emplace|emplace_hint|assign|append|operator\+=)[<(]")
ALLOC_SUBSCRIPT = re.compile(
    BOUND + r"std::(unordered_)?map<.*>::operator\[\]\(")
# Container constructors taking a size, range, or initializer list
# allocate eagerly. The lookahead exempts the non-allocating forms:
# default, allocator-only (which libstdc++'s move-assign path
# instantiates internally), and the move constructor (sole argument
# "std::...&&"). Constructor templates (range ctors) demangle with
# their template arguments, hence "[<(]".
ALLOC_CTOR = re.compile(
    BOUND + STD_CONTAINER + r".*>::("
    r"vector|deque|list|forward_list|map|set|multimap|multiset|"
    r"unordered_map|unordered_set|unordered_multimap|"
    r"unordered_multiset)[<(]"
    r"(?!\)|std::allocator<.*> const&\)|std::.*&&\))")
# Constructor sinks match "::name<(" because converting constructors
# (std::function from a lambda, basic_string from iterators) are
# constructor templates and demangle with their template arguments.
ALLOC_MISC = re.compile(
    BOUND + r"(std::function<.*>::function[<(]|"
    r"std::(__cxx11::)?basic_string<.*>::basic_string[<(]|"
    r"std::allocator<.*>::allocate\(|"
    r"std::make_unique<|"
    r"std::make_shared<|"
    r"__cxa_allocate_exception$)")

NONDET_C = {
    "rand", "rand_r", "random", "srand", "srandom",
    "lrand48", "mrand48", "drand48", "erand48", "nrand48", "jrand48",
    "time", "gettimeofday", "clock_gettime", "clock", "timespec_get",
    "getrandom", "getentropy",
}
NONDET_CXX = re.compile(
    BOUND + r"(std::chrono::(_V2::)?(system_clock|steady_clock|"
    r"high_resolution_clock)::now\(|"
    r"std::random_device::)")
# Iterating an unordered container makes results depend on hash-bucket
# layout (libstdc++ implementation detail), which is exactly the class
# of thread-count/platform-dependent behaviour LS_DETERMINISTIC bans.
NONDET_UNORDERED = re.compile(
    BOUND + r"std::unordered_(map|set|multimap|multiset)<.*>::"
    r"(begin|cbegin)\(")

LOCK_C = {
    "pthread_mutex_lock", "pthread_mutex_trylock", "pthread_mutex_timedlock",
    "pthread_rwlock_rdlock", "pthread_rwlock_wrlock",
    "pthread_rwlock_tryrdlock", "pthread_rwlock_trywrlock",
    "pthread_cond_wait", "pthread_cond_timedwait",
    "pthread_spin_lock", "sem_wait", "sem_timedwait", "flock", "lockf",
    "sleep", "usleep", "nanosleep",
}
LOCK_CXX = re.compile(
    BOUND + r"(std::(mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex)::(lock|try_lock|lock_shared)|"
    r"std::lock_guard<.*>::lock_guard\(|"
    r"std::unique_lock<.*>::unique_lock\(|"
    r"std::scoped_lock<.*>::scoped_lock\(|"
    r"std::shared_lock<.*>::shared_lock\(|"
    r"std::condition_variable(_any)?::wait|"
    r"std::this_thread::sleep_|"
    r"longsight::Mutex::lock\(|"
    r"longsight::MutexLock::MutexLock\(|"
    r"longsight::CondVar::wait|"
    r"longsight::SpinLock::lock\(|"
    r"longsight::SpinGuard::SpinGuard\()")
IO_C = {
    "printf", "fprintf", "vfprintf", "sprintf", "snprintf",
    "puts", "fputs", "putc", "fputc", "putchar", "fwrite", "fread",
    "fgets", "fgetc", "getchar", "scanf", "fscanf",
    "write", "read", "open", "openat", "fopen", "fflush",
}
IO_CXX = re.compile(
    BOUND + r"(std::basic_ostream<.*>::(operator<<|write|put|flush)|"
    r"std::basic_istream<.*>::|"
    r"std::(__cxx11::)?basic_[io]?fstream<|"
    r"std::basic_filebuf<|"
    r"std::operator<<\s*[<(])")

CATEGORY_WHY = {
    "alloc": "heap allocation",
    "determinism": "nondeterminism",
    "lock": "blocking/IO",
}

CATEGORIES = ("alloc", "determinism", "lock")


def base_name(pretty):
    """Unqualified-or-qualified name token before the parameter list.

    "long time(long*)" -> "time"; "void std::mutex::lock()" ->
    "std::mutex::lock". Only used for exact C-identifier lookups, so
    qualified results simply never match those sets.
    """
    pre = pretty.split("(", 1)[0].strip()
    if not pre:
        return pretty
    return pre.split()[-1].lstrip("*&")


def sink_category(mangled, pretty):
    """Categories (possibly several) a callee violates when reached."""
    cats = []
    names = {base_name(pretty)}
    if not mangled.startswith("_Z"):
        # Plain C symbols sometimes come with truncated labels
        # (variadic declarations render as ")"); the symbol itself is
        # the reliable name.
        names.add(mangled)
    if (MANGLED_ALLOC.match(mangled) or names & C_ALLOC
            or ALLOC_ENTRY.search(pretty) or ALLOC_SUBSCRIPT.search(pretty)
            or ALLOC_CTOR.search(pretty) or ALLOC_MISC.search(pretty)):
        cats.append("alloc")
    if (names & NONDET_C or NONDET_CXX.search(pretty)
            or NONDET_UNORDERED.search(pretty)):
        cats.append("determinism")
    if (names & LOCK_C or LOCK_CXX.search(pretty)
            or names & IO_C or IO_CXX.search(pretty)):
        cats.append("lock")
    return cats


# --------------------------------------------------------------------------
# Contract walk
# --------------------------------------------------------------------------

class Checker:
    def __init__(self, graph, project_root, verbose=False):
        self.graph = graph
        self.src = callgraph.SourceIndex(project_root, CATEGORIES)
        self.verbose = verbose
        self.diagnostics = []
        self.indirect_edges = 0
        # Classify marker / exempt nodes once.
        self.marker_cat = {}
        self.exempt_keys = set()
        for key, node in graph.items():
            cat = MARKERS.get(node.mangled)
            if cat:
                self.marker_cat[key] = cat
            elif node.mangled == EXEMPT_MARKER:
                self.exempt_keys.add(key)
        # Roots and exempt callers.
        self.roots = {}      # key -> set of categories
        self.exempt = set()  # keys whose subgraph is never traversed
        for key, node in graph.items():
            for dst, _ in node.edges:
                cat = self.marker_cat.get(dst)
                if cat:
                    self.roots.setdefault(key, set()).add(cat)
                if dst in self.exempt_keys:
                    self.exempt.add(key)

    # -- traversal --------------------------------------------------------

    def check_root(self, root_key, category, directory):
        """BFS from one root for one contract category."""
        graph = self.graph
        seen = {root_key}
        # queue entries: (node key, path of (pretty, callsite) hops)
        queue = [(root_key, ())]
        while queue:
            key, path = queue.pop(0)
            node = graph.get(key)
            if node is None:
                continue
            for dst, callsite in node.edges:
                if dst in self.marker_cat or dst in self.exempt_keys:
                    continue
                target = graph.get(dst)
                if target is None:
                    continue
                if dst == "__indirect_call":
                    self.indirect_edges += 1
                    continue
                if target.mangled.startswith(BUILTIN_PRUNE_MANGLED):
                    continue
                cats = sink_category(target.mangled, target.pretty)
                if category in cats:
                    if not self.src.waived(callsite, directory, category):
                        self.report(root_key, category, key, dst,
                                    callsite, path, directory)
                    continue  # never descend into a sink
                if dst in self.exempt or dst in seen:
                    continue
                seen.add(dst)
                queue.append(
                    (dst, path + ((target.pretty, callsite),)))

    def report(self, root_key, category, caller_key, sink_key,
               callsite, path, directory):
        root = self.graph[root_key]
        caller = self.graph[caller_key]
        sink = self.graph[sink_key]
        loc = callsite or caller.loc or "<unknown>"
        chain = [root.pretty] + [p for p, _ in path] + [sink.pretty]
        self.diagnostics.append({
            "file": loc.rsplit(":", 2)[0] if loc.count(":") >= 2 else loc,
            "line": int(loc.rsplit(":", 2)[1]) if loc.count(":") >= 2 else 0,
            "col": int(loc.rsplit(":", 2)[2]) if loc.count(":") >= 2 else 0,
            "loc": loc,
            "category": category,
            "root": root.pretty,
            "caller": caller.pretty,
            "sink": sink.pretty,
            "path": chain,
            "directory": directory,
        })

    def run(self, directory):
        for root_key, cats in sorted(self.roots.items()):
            for cat in sorted(cats):
                self.check_root(root_key, cat, directory)
        # One diagnostic per (site, category, sink): several roots often
        # funnel through the same call.
        uniq = {}
        for d in self.diagnostics:
            uniq.setdefault((d["loc"], d["category"], d["sink"]), d)
        self.diagnostics = sorted(
            uniq.values(),
            key=lambda d: (d["file"], d["line"], d["col"], d["category"]))
        return self.diagnostics


def print_diagnostics(diags, stream=sys.stdout):
    for d in diags:
        print("%s: error: [ls-lint:%s] %s reachable from %s root '%s'"
              % (d["loc"], d["category"], CATEGORY_WHY[d["category"]],
                 "LS_HOT_PATH" if d["category"] == "alloc"
                 else "LS_DETERMINISTIC" if d["category"] == "determinism"
                 else "LS_NO_LOCK", d["root"]), file=stream)
        print("    sink: %s" % d["sink"], file=stream)
        chain = d["path"]
        if len(chain) > 2:
            print("    via:  %s" % " -> ".join(chain[1:-1]), file=stream)


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------

def lint_build(build_dir, project_root, jobs, verbose, only=None):
    # Compiles run from each entry's own directory; every path this
    # function hands them must therefore be absolute.
    build_dir = os.path.realpath(build_dir)
    root = os.path.realpath(project_root)
    tus = callgraph.project_tus(build_dir, root, only)
    cache_dir = os.path.join(build_dir, "lint-cache")
    artifacts, _stats = callgraph.compile_all(tus, cache_dir, jobs, verbose)

    graph = {}
    for path, art in artifacts.items():
        callgraph.parse_ci(art["ci"], os.path.basename(path), graph)

    callgraph.finalize_graph(graph)
    checker = Checker(graph, root, verbose)
    if verbose:
        names = sorted(checker.graph[k].pretty for k in checker.roots)
        print("lint: %d TUs, %d nodes, %d annotated roots"
              % (len(tus), len(graph), len(names)), file=sys.stderr)
        for n in names:
            print("  root: %s" % n, file=sys.stderr)
    diags = checker.run(root)
    return diags, checker, len(tus)


def lint_fixture(path, project_root, verbose):
    """Lint a fixture: one .cc file, or a directory whose .cc files are
    merged into one graph like the TUs of a build (cross-TU calls)."""
    path = os.path.realpath(path)
    if os.path.isdir(path):
        directory = path
        sources = sorted(os.path.join(path, f) for f in os.listdir(path)
                         if f.endswith(".cc"))
    else:
        directory = os.path.dirname(path)
        sources = [path]
    cxx = os.environ.get("CXX", "g++")
    cache_dir = os.path.join(directory, ".lint-cache")
    os.makedirs(cache_dir, exist_ok=True)
    graph = {}
    for src in sources:
        args = [cxx, "-std=c++20", "-I", os.path.join(project_root, "src"),
                src]
        art = callgraph.compile_tu(args, directory, cache_dir, verbose)
        callgraph.parse_ci(art["ci"], os.path.basename(src), graph)
    callgraph.finalize_graph(graph)
    # Fixtures may reference project sources; their own graph is enough
    # because a fixture is self-contained.
    checker = Checker(graph, directory, verbose)
    return checker.run(directory), checker, len(sources)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build-dir", help="CMake build dir with "
                                        "compile_commands.json")
    ap.add_argument("--fixture", help="lint one standalone fixture file, "
                                      "or a directory of fixture TUs")
    ap.add_argument("--project-root",
                    default=os.path.realpath(
                        os.path.join(os.path.dirname(__file__),
                                     os.pardir, os.pardir)))
    ap.add_argument("--json", help="write diagnostics as JSON to this file")
    ap.add_argument("--jobs", type=int,
                    default=max(1, (os.cpu_count() or 1)))
    ap.add_argument("--only", action="append",
                    help="restrict to TUs whose path contains SUBSTR")
    ap.add_argument("-v", "--verbose", action="store_true")
    opts = ap.parse_args()

    if bool(opts.build_dir) == bool(opts.fixture):
        ap.error("exactly one of --build-dir / --fixture is required")

    if opts.fixture:
        diags, checker, ntus = lint_fixture(
            opts.fixture, opts.project_root, opts.verbose)
    else:
        diags, checker, ntus = lint_build(
            opts.build_dir, opts.project_root, opts.jobs, opts.verbose,
            opts.only)

    print_diagnostics(diags)
    if opts.json:
        with open(opts.json, "w") as f:
            json.dump({"diagnostics": diags,
                       "roots": sorted(
                           checker.graph[k].pretty for k in checker.roots),
                       "tus": ntus}, f, indent=1)
    if diags:
        print("ls-lint: %d contract violation(s) across %d annotated "
              "root(s) in %d TU(s)" % (len(diags), len(checker.roots),
                                       ntus), file=sys.stderr)
        return 1
    print("ls-lint: OK (%d annotated roots, %d TUs, %d indirect edges "
          "not traversed)" % (len(checker.roots), ntus,
                              checker.indirect_edges))
    return 0


if __name__ == "__main__":
    sys.exit(main())
