#!/usr/bin/env python3
"""Repo invariant linter: machine-checks the contracts the compiler can't.

Rules (each finding is `rule: path:line: message`, exit 1 if any fire):

  fault-point-untested  Every SMETER_FAULT_POINT("name") in src/ or tools/
                        must be exercised by at least one test — the quoted
                        name must appear somewhere under tests/. A seam
                        nobody injects through is dead recovery code.
  wire-codec-closure    Every wire builder `Make<X>` in src/net/wire.h or
                        src/net/query_wire.h must have a matching parser
                        `Parse<X>` (alias: Pong parses via ParsePing), and
                        both sides must appear in a test (the fuzz closure
                        harnesses or a unit test). One-way codecs rot
                        silently.
  raw-system            No `::system(` in src/ or tools/: shelling out
                        bypasses the Status error contract and the fault
                        seams.
  array-new             No `new T[...]` in src/ or tools/: use containers;
                        raw array news are how the sanitizers earn their
                        keep.
  unchecked-value       A `.value()` in src/ or tools/ must be guarded: an
                        `.ok()` / `has_value()` / SMETER_CHECK /
                        SMETER_ASSIGN / RETURN_IF_ERROR within the
                        preceding lines, or an explicit `// lint: checked`
                        on the line stating why it cannot fail.
  raw-mutex             No std::mutex / lock_guard / unique_lock /
                        scoped_lock / condition_variable (or their
                        includes) outside src/common/sync.h. All locking
                        goes through the annotated wrappers so Clang's
                        -Wthread-safety sees every acquisition
                        (DESIGN.md section 13).
  one-server-skeleton   `::accept4(`, `::bind(` and `::listen(` appear in
                        src/ and tools/ only in src/net/server_core.cc, and
                        a blocking `::connect(` only in
                        src/net/framed_client.cc: ingestd and queryd share
                        one server core, and every client one framed
                        transport (DESIGN.md section 14). A second copy is
                        how the two daemons drifted apart before.
  counters-dumped       Every uint64_t field of IngestCounters
                        (src/net/ingest_server.h) and QueryCounters
                        (src/net/query_server.h) must appear as a quoted
                        JSON key in the matching .cc — a counter that
                        never reaches the SIGUSR1 stats dump is an
                        overload signal nobody can observe (DESIGN.md
                        section 15).

`--self-test` runs the rules against the seeded-violation fixtures in
tools/lint_fixtures/ and fails unless every fixture trips exactly its
expected rule and the clean fixture trips none. CI runs both modes; they
are also registered as ctest cases.
"""

import argparse
import re
import sys
from pathlib import Path

SOURCE_SUFFIXES = {".cc", ".h"}
# The annotated wrappers themselves are the one legal home of <mutex>.
MUTEX_EXEMPT = "src/common/sync.h"
# Seeded-violation fixtures must never count as production sources.
FIXTURE_DIR = "tools/lint_fixtures"

SUPPRESS_COMMENT = "lint: checked"
# A .value() is "guarded" if one of these appears on the same line or the
# few lines above it (same statement or the branch that proved success).
GUARD_TOKENS = (
    ".ok()",
    "has_value()",
    "SMETER_CHECK",
    "SMETER_ASSIGN_OR_RETURN",
    "SMETER_RETURN_IF_ERROR",
    "ASSERT_OK",
    "EXPECT_OK",
)
GUARD_WINDOW = 8  # lines above the .value() the guard may sit on

FAULT_POINT_RE = re.compile(r'SMETER_FAULT_POINT\(\s*"([^"]+)"')
MAKE_RE = re.compile(r"\bFrame\s+Make([A-Z]\w*)\s*\(")
PARSE_RE = re.compile(r"\bParse([A-Z]\w*)\s*\(")
SYSTEM_RE = re.compile(r"(::system|\bstd::system)\s*\(")
ARRAY_NEW_RE = re.compile(r"\bnew\s+[\w:<>, ]+\s*\[")
VALUE_RE = re.compile(r"\.value\(\)")
MUTEX_RE = re.compile(
    r"std::(mutex|timed_mutex|recursive_mutex|shared_mutex|lock_guard|"
    r"unique_lock|scoped_lock|condition_variable)\b"
    r"|#\s*include\s*<(mutex|condition_variable|shared_mutex)>"
)
# Socket calls with exactly one legal home: (pattern, home, what).
SOCKET_HOMES = (
    (re.compile(r"(?<!\w)::(accept4|bind|listen)\s*\("),
     "src/net/server_core.cc", "listener bind/accept"),
    (re.compile(r"(?<!\w)::connect\s*\("),
     "src/net/framed_client.cc", "blocking connect"),
)
# Pong frames parse through ParsePing (one nonce payload, two directions).
PARSER_ALIASES = {"Pong": "Ping"}
# Headers holding Make*/Parse* codec pairs that must close over each other.
WIRE_HEADERS = ("src/net/wire.h", "src/net/query_wire.h")
# Counter structs whose every field must reach the SIGUSR1 stats dump:
# struct name -> (header with the struct, impl with the ToJson dump).
COUNTER_STRUCTS = {
    "IngestCounters": ("src/net/ingest_server.h", "src/net/ingest_server.cc"),
    "QueryCounters": ("src/net/query_server.h", "src/net/query_server.cc"),
}
COUNTER_FIELD_RE = re.compile(r"\buint64_t\s+(\w+)\s*=")


def counters_struct_re(name):
    return re.compile(r"struct\s+" + name + r"\s*\{(.*?)\};", re.DOTALL)


def strip_line_comment(line):
    """Drops a // comment so commented-out code can't trip token rules."""
    cut = line.find("//")
    return line if cut < 0 else line[:cut]


def read(path):
    return path.read_text(encoding="utf-8", errors="replace")


def lint_tokens(rel, text):
    """File-local rules: raw-system, array-new, unchecked-value, raw-mutex,
    one-server-skeleton."""
    findings = []
    lines = text.splitlines()
    for i, raw_line in enumerate(lines, start=1):
        line = strip_line_comment(raw_line)
        if SYSTEM_RE.search(line):
            findings.append(("raw-system", rel, i,
                             "::system() bypasses the Status contract"))
        if ARRAY_NEW_RE.search(line):
            findings.append(("array-new", rel, i,
                             "raw array new; use a container"))
        if MUTEX_RE.search(line) and rel != MUTEX_EXEMPT:
            findings.append((
                "raw-mutex", rel, i,
                "raw std mutex/condvar outside common/sync.h; use the "
                "annotated wrappers"))
        for pattern, home, what in SOCKET_HOMES:
            if rel != home and pattern.search(line):
                findings.append((
                    "one-server-skeleton", rel, i,
                    f"{what} outside {home}; use the shared one"))
        if VALUE_RE.search(line) and SUPPRESS_COMMENT not in raw_line:
            window = lines[max(0, i - 1 - GUARD_WINDOW):i]
            if not any(tok in w for w in window for tok in GUARD_TOKENS):
                findings.append((
                    "unchecked-value", rel, i,
                    ".value() with no .ok()/has_value() guard in the "
                    f"preceding {GUARD_WINDOW} lines (or '// "
                    f"{SUPPRESS_COMMENT}: <why>')"))
    return findings


def lint_fault_points(src_texts, test_blob):
    """Every injection seam must be exercised by at least one test."""
    findings = []
    for rel, text in sorted(src_texts.items()):
        for i, line in enumerate(text.splitlines(), start=1):
            for name in FAULT_POINT_RE.findall(line):
                if f'"{name}"' not in test_blob:
                    findings.append((
                        "fault-point-untested", rel, i,
                        f'fault point "{name}" is exercised by no test'))
    return findings


def lint_wire_closure(rel, wire_text, test_blob):
    """Make*/Parse* closure, and both halves referenced by tests."""
    findings = []
    makes = {}  # name -> first line
    parses = set()
    for i, line in enumerate(wire_text.splitlines(), start=1):
        for name in MAKE_RE.findall(line):
            makes.setdefault(name, i)
        parses.update(PARSE_RE.findall(line))
    # Ack frames share one builder/parser pair (MakeAck/ParseAck), which the
    # regexes pick up by name like every other pair; nothing special needed.
    for name, lineno in sorted(makes.items()):
        parser = PARSER_ALIASES.get(name, name)
        if parser not in parses:
            findings.append((
                "wire-codec-closure", rel, lineno,
                f"Make{name} has no matching Parse{parser}"))
            continue
        if f"Make{name}" not in test_blob:
            findings.append((
                "wire-codec-closure", rel, lineno,
                f"Make{name} appears in no test (fuzz closure or unit)"))
        if f"Parse{parser}" not in test_blob:
            findings.append((
                "wire-codec-closure", rel, lineno,
                f"Parse{parser} appears in no test (fuzz closure or unit)"))
    return findings


def lint_counters_dumped(struct_name, header_rel, header_text, impl_text):
    """Every field of the counter struct must surface in the dump JSON."""
    findings = []
    struct = counters_struct_re(struct_name).search(header_text)
    if not struct:
        return findings
    for field_match in COUNTER_FIELD_RE.finditer(struct.group(1)):
        field = field_match.group(1)
        # The dump builds its JSON inside C++ string literals, so the key
        # usually appears escaped (\"key\"); accept the raw form too.
        if (f'"{field}"' not in impl_text
                and f'\\"{field}\\"' not in impl_text):
            lineno = header_text[:struct.start(1) +
                                 field_match.start()].count("\n") + 1
            findings.append((
                "counters-dumped", header_rel, lineno,
                f'{struct_name}.{field} never appears as a quoted JSON '
                f'key in the stats dump (ToJson must emit every counter)'))
    return findings


def collect(root, subdir):
    out = {}
    base = root / subdir
    if not base.is_dir():
        return out
    for path in sorted(base.rglob("*")):
        if path.suffix not in SOURCE_SUFFIXES:
            continue
        rel = path.relative_to(root).as_posix()
        if rel.startswith(FIXTURE_DIR):
            continue
        out[rel] = read(path)
    return out


def lint_tree(root):
    src_texts = {}
    for subdir in ("src", "tools"):
        src_texts.update(collect(root, subdir))
    test_texts = {}
    for subdir in ("tests", "bench"):
        test_texts.update(collect(root, subdir))
    test_blob = "\n".join(test_texts.values())

    findings = []
    for rel, text in sorted(src_texts.items()):
        findings.extend(lint_tokens(rel, text))
    findings.extend(lint_fault_points(src_texts, test_blob))
    for wire_rel in WIRE_HEADERS:
        if wire_rel in src_texts:
            findings.extend(lint_wire_closure(wire_rel, src_texts[wire_rel],
                                              test_blob))
    for struct_name, (header_rel, impl_rel) in sorted(COUNTER_STRUCTS.items()):
        if header_rel in src_texts:
            findings.extend(lint_counters_dumped(
                struct_name, header_rel, src_texts[header_rel],
                src_texts.get(impl_rel, "")))
    return findings


def lint_fixture(path):
    """Runs every rule against one fixture file in isolation: the fixture
    is the sole source file, the test corpus is empty."""
    rel = path.name
    text = read(path)
    findings = lint_tokens(rel, text)
    findings.extend(lint_fault_points({rel: text}, test_blob=""))
    if MAKE_RE.search(text) or PARSE_RE.search(text):
        findings.extend(lint_wire_closure(rel, text, test_blob=""))
    for struct_name in COUNTER_STRUCTS:
        if struct_name in text:
            # The fixture plays both header and impl: its own JSON-ish
            # string is the dump the fields must reach.
            findings.extend(lint_counters_dumped(struct_name, rel, text, text))
    return findings


# fixture file -> the rule it must trip (None = must be clean).
FIXTURE_EXPECTATIONS = {
    "orphan_fault_point.cc": "fault-point-untested",
    "orphan_client_fault_point.cc": "fault-point-untested",
    "make_without_parse.h": "wire-codec-closure",
    "raw_mutex.cc": "raw-mutex",
    "unchecked_value.cc": "unchecked-value",
    "raw_system.cc": "raw-system",
    "array_new.cc": "array-new",
    "second_acceptor.cc": "one-server-skeleton",
    "undumped_counter.h": "counters-dumped",
    "undumped_query_counter.h": "counters-dumped",
    "clean.cc": None,
}


def self_test(root):
    fixture_dir = root / FIXTURE_DIR
    failures = []
    for name, expected in sorted(FIXTURE_EXPECTATIONS.items()):
        path = fixture_dir / name
        if not path.is_file():
            failures.append(f"{name}: fixture missing")
            continue
        rules = {f[0] for f in lint_fixture(path)}
        if expected is None:
            if rules:
                failures.append(f"{name}: expected clean, tripped {sorted(rules)}")
        elif expected not in rules:
            failures.append(f"{name}: expected {expected}, got {sorted(rules) or 'nothing'}")
    for name in sorted(p.name for p in fixture_dir.glob("*")
                       if p.suffix in SOURCE_SUFFIXES):
        if name not in FIXTURE_EXPECTATIONS:
            failures.append(f"{name}: fixture has no expectation entry")
    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}", file=sys.stderr)
        return 1
    print(f"self-test OK: {len(FIXTURE_EXPECTATIONS)} fixtures behaved")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: the script's repo)")
    parser.add_argument("--self-test", action="store_true",
                        help="lint the seeded-violation fixtures instead of "
                             "the tree and verify each trips its rule")
    args = parser.parse_args()

    if args.self_test:
        return self_test(args.repo)

    findings = lint_tree(args.repo)
    for rule, rel, lineno, message in findings:
        print(f"{rule}: {rel}:{lineno}: {message}", file=sys.stderr)
    if findings:
        print(f"{len(findings)} invariant violation(s)", file=sys.stderr)
        return 1
    print("invariant lint OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
