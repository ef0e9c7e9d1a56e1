#!/usr/bin/env python3
"""Self-test for the lint passes over their fixture corpora.

Two suites share one protocol, selected with --suite:

  contract  ls_contract_lint.py over fixtures/{pass,fail}
  race      ls_race_lint.py     over fixtures/race/{pass,fail}

A fixture is one .cc file, or (contract suite) a directory whose .cc
files are linted together as the TUs of one program, which is how
cross-TU call edges are exercised.

Every pass fixture must lint clean (exit 0, no diagnostics).
Every fail fixture must produce EXACTLY the diagnostics its
`// EXPECT(category)` comments declare: one diagnostic of that
category anchored at that file and line, no extras, no misses — so
both false negatives AND false positives (and wrong locations) fail
the suite.

The race suite also checks the shared lint cache: a compile that is
still running must never be handed to a second lint compiling the same
TU (see check_cache_publish).

Usage: run_fixture_tests.py [--suite contract|race] [--project-root DIR]
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.realpath(__file__))
sys.path.insert(0, HERE)
import callgraph  # noqa: E402

SUITES = {
    "contract": {
        "lint": os.path.join(HERE, "ls_contract_lint.py"),
        "fixtures": os.path.join(HERE, "fixtures"),
        "categories": ("alloc", "determinism", "lock"),
    },
    "race": {
        "lint": os.path.join(HERE, "ls_race_lint.py"),
        "fixtures": os.path.join(HERE, "fixtures", "race"),
        "categories": ("race", "lockorder", "parallel-root"),
    },
}


def run_lint(lint, fixture, project_root):
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tf:
        out = tf.name
    try:
        proc = subprocess.run(
            [sys.executable, lint, "--fixture", fixture,
             "--project-root", project_root, "--json", out],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        with open(out) as f:
            diags = json.load(f)["diagnostics"]
    finally:
        os.unlink(out)
    return proc, diags


def fixture_files(fixture):
    """Source files of a fixture: the file itself, or a directory's."""
    if not os.path.isdir(fixture):
        return [fixture]
    return sorted(os.path.join(fixture, f) for f in os.listdir(fixture)
                  if f.endswith((".cc", ".hh")))


def expected_of(fixture, expect_re):
    expected = set()
    for path in fixture_files(fixture):
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                m = expect_re.search(line)
                if m:
                    expected.add((os.path.basename(path), lineno,
                                  m.group(1)))
    return expected


# Stand-in compiler for check_cache_publish. The first compile writes
# its .ci and HALF of its GIMPLE dump, then blocks until released; any
# later compile finishes at once. Both write the same complete dump.
FAKE_COMPILER = r"""
import os, sys, time
args = sys.argv[1:]
if "-E" in args:
    sys.stdout.write("int tu();\n")
    sys.exit(0)
gate = os.environ["LS_FAKE_CC_GATE"]
gimple = [a.split("=", 1)[1] for a in args
          if a.startswith("-fdump-tree-gimple-lineno=")][0]
asm = args[args.index("-o") + 1]
with open(os.path.splitext(asm)[0] + ".ci", "w") as f:
    f.write("graph: { }\n")
with open(gimple, "w") as f:
    f.write("HEAD\n")
    f.flush()
    try:
        os.close(os.open(gate + ".first", os.O_CREAT | os.O_EXCL))
        open(gate + ".half", "w").close()
        deadline = time.time() + 60
        while not os.path.exists(gate + ".release"):
            if time.time() > deadline:
                sys.exit(3)
            time.sleep(0.01)
    except FileExistsError:
        pass
    f.write("TAIL\n")
open(asm, "w").close()
"""


def check_cache_publish():
    """Two lints compiling one TU into one cache at the same time (ctest
    runs the contract and race lints concurrently) must each get the
    complete artifacts, never the other's half-written dump."""
    with tempfile.TemporaryDirectory() as tmp:
        fake = os.path.join(tmp, "fake_cc.py")
        with open(fake, "w") as f:
            f.write(FAKE_COMPILER)
        gate = os.path.join(tmp, "gate")
        os.environ["LS_FAKE_CC_GATE"] = gate
        cache = os.path.join(tmp, "cache")
        os.makedirs(cache)
        args = [sys.executable, fake, "tu.cc"]
        dumps = {}

        def compile_and_read(name):
            # Read at once, as a lint parses its artifacts right away.
            art = callgraph.compile_tu(args, tmp, cache, False)
            with open(art["gimple"]) as f:
                dumps[name] = f.read()

        t = threading.Thread(target=compile_and_read, args=("first",))
        t.start()
        deadline = time.time() + 60
        while not os.path.exists(gate + ".half") and time.time() < deadline:
            time.sleep(0.01)
        try:
            compile_and_read("second")
        finally:
            open(gate + ".release", "w").close()
            t.join()
        return ["lint cache: %s concurrent compile read GIMPLE %r"
                % (name, dumps.get(name))
                for name in ("first", "second")
                if dumps.get(name) != "HEAD\nTAIL\n"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--suite", choices=sorted(SUITES), default="contract")
    ap.add_argument("--project-root",
                    default=os.path.realpath(
                        os.path.join(HERE, os.pardir, os.pardir)))
    opts = ap.parse_args()

    suite = SUITES[opts.suite]
    expect_re = re.compile(r"//\s*EXPECT\((%s)\)"
                           % "|".join(re.escape(c)
                                      for c in suite["categories"]))

    failures = check_cache_publish() if opts.suite == "race" else []
    checked = 0

    for kind in ("pass", "fail"):
        d = os.path.join(suite["fixtures"], kind)
        files = sorted(f for f in os.listdir(d)
                       if f.endswith(".cc")
                       or (os.path.isdir(os.path.join(d, f))
                           and not f.startswith(".")))
        if not files:
            failures.append("%s corpus is empty" % kind)
        for name in files:
            fixture = os.path.join(d, name)
            checked += 1
            proc, diags = run_lint(suite["lint"], fixture,
                                   opts.project_root)
            got = {(os.path.basename(dg["file"]), dg["line"],
                    dg["category"]) for dg in diags}
            # Diagnostics must also point into the fixture itself.
            own = set(fixture_files(fixture))
            stray = [dg for dg in diags
                     if os.path.realpath(dg["file"]) not in own]
            if stray:
                failures.append("%s: diagnostic outside fixture: %s"
                                % (name, stray[0]["loc"]))
            if kind == "pass":
                if proc.returncode != 0 or got:
                    failures.append(
                        "%s: expected clean, exit=%d, diagnostics=%s\n%s"
                        % (name, proc.returncode, sorted(got),
                           proc.stdout + proc.stderr))
            else:
                expected = expected_of(fixture, expect_re)
                if not expected:
                    failures.append("%s: fail fixture with no EXPECT "
                                    "comments" % name)
                if proc.returncode == 0:
                    failures.append("%s: expected nonzero exit" % name)
                if got != expected:
                    failures.append(
                        "%s: diagnostic mismatch\n  expected: %s\n"
                        "  got:      %s\n%s"
                        % (name, sorted(expected), sorted(got),
                           proc.stdout + proc.stderr))
                for dg in diags:
                    if dg["col"] <= 0:
                        failures.append("%s: diagnostic without a "
                                        "column: %s" % (name, dg["loc"]))

    if failures:
        for f in failures:
            print("FAIL: %s" % f, file=sys.stderr)
        print("%d fixture check(s) failed" % len(failures),
              file=sys.stderr)
        return 1
    print("%s lint fixtures OK (%d files)" % (opts.suite, checked))
    return 0


if __name__ == "__main__":
    sys.exit(main())
