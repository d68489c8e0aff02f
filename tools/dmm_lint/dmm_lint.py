#!/usr/bin/env python3
"""dmm_lint: repo-specific invariant checker for the DMM methodology repo.

The repo's correctness rests on invariants no general-purpose tool knows
about; this linter makes them machine-checked:

  nondet          No wall-clock or global-RNG nondeterminism sources in
                  result-affecting code: rand/srand, std::random_device,
                  C time()/clock().  Searches use seeded engines; timing
                  uses <chrono> and is reporting-only.

  unordered-iter  No iteration over std::unordered_map/set feeding results:
                  hash-order is an implementation detail.  Sort first, fold
                  order-independently, or suppress with a justification.

  ptr-order       No ordering keyed on raw pointer values (pointer-keyed
                  std::map/std::set, reinterpret_cast to uintptr_t):
                  address-order is only deterministic relative to the slab
                  arena, and only on purpose.

  raw-parse       No raw atoi/strtol/stoull/sscanf/std::stoi... outside
                  core::parse_number (src/core/search.cpp), which rejects
                  trailing garbage and overflow instead of silently
                  truncating (the PR 5 hardening).

  doc-ref         No comment naming a `*.md` file that does not exist in
                  the repo (resolved from the repo root or from the file's
                  own directory): a note the reader cannot open is a note
                  they do not have.

  raw-bytes       No hand-rolled little-endian shift loop (`>> (8 * i)`,
                  `<< (8 * i)`) outside src/core/include/dmm/core/
                  checked_file.h, the one byte codec every file and frame
                  format goes through.  tests/ is exempt: its forgers are
                  an independent reference for that codec.

Findings print as `path:line: [rule] message` and exit status 1.  A finding
can be suppressed with an inline annotation on the same line or the line
directly above:

    // dmm-lint: allow(<rule>): <reason>

Usage:
    dmm_lint.py --root REPO [--compdb build/compile_commands.json]
                [--report PATH]
    dmm_lint.py --self-test

--self-test runs the rules over tools/dmm_lint/fixtures/, where every
seeded violation is marked `// expect: <rule>`; the tool passes iff the
findings match the expectations exactly and every rule is exercised.
"""

import argparse
import json
import os
import re
import sys

RULES = ("nondet", "unordered-iter", "ptr-order", "raw-parse", "doc-ref",
         "raw-bytes")

RAW_PARSE_WHITELIST = ("src/core/search.cpp",)

RAW_BYTES_WHITELIST = ("src/core/include/dmm/core/checked_file.h",)

SCAN_DIRS = ("src", "bench", "examples", "tests",
             "tools/dmm_capture")

ALLOW_RE = re.compile(r"dmm-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")
EXPECT_RE = re.compile(r"//\s*expect:\s*([a-z-]+)")


def blank(chunk):
    return re.sub(r"[^\n]", " ", chunk)


def split_comments(text):
    """Returns (code, comments), both preserving line structure: code has
    comments and string/char literals blanked, comments has everything
    but the comments blanked."""
    out = []
    com = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            com.append(text[i:j])
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            chunk = text[i:j + 2]
            out.append(blank(chunk))
            com.append(chunk)
            i = j + 2
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(c + " " * (j - i - 1) + (quote if j < n else ""))
            com.append(blank(text[i:j + 1]))
            i = j + 1
        else:
            out.append(c)
            com.append(c if c == "\n" else " ")
            i += 1
    return "".join(out), "".join(com)


def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, preserving line structure."""
    return split_comments(text)[0]


def build_allow_map(raw_lines):
    """Line numbers (1-based) at which each rule is suppressed."""
    allowed = {}
    for lineno, line in enumerate(raw_lines, 1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        for rule in re.split(r"\s*,\s*", m.group(1)):
            # The annotation covers its own line and the next line, so it
            # can sit on the statement or directly above it.
            allowed.setdefault(rule, set()).update((lineno, lineno + 1))
    return allowed


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def iter_line_matches(clean_lines, pattern):
    for lineno, line in enumerate(clean_lines, 1):
        for m in pattern.finditer(line):
            yield lineno, line, m


NONDET_PAT = re.compile(
    r"\b(rand|srand)\s*\(|std::random_device|\brandom_device\b"
    r"|\btime\s*\(|\bclock\s*\(")


def check_nondet(relpath, clean_lines):
    for lineno, _line, m in iter_line_matches(clean_lines, NONDET_PAT):
        yield Finding(relpath, lineno, "nondet",
                      f"nondeterminism source `{m.group(0).strip()}` in "
                      "result-affecting code — use a seeded engine or "
                      "<chrono> reporting outside the result path")


UNORDERED_DECL_PAT = re.compile(
    r"unordered_(?:map|set)\s*<[^;{}()]*?>\s*&?\s*(\w+)\s*[;{=,)]",
    re.DOTALL)


def collect_unordered_names(clean_texts):
    names = set()
    for text in clean_texts.values():
        for m in UNORDERED_DECL_PAT.finditer(text):
            names.add(m.group(1))
    return names


def check_unordered_iter(relpath, clean_lines, unordered_names):
    range_for = re.compile(r"for\s*\([^;()]*?:\s*([\w.\->]+)\s*\)")
    iter_pair = re.compile(r"(\w+)\.begin\(\)\s*,\s*\1\.end\(\)")
    for lineno, line, m in iter_line_matches(clean_lines, range_for):
        name = m.group(1).split(".")[-1].split(">")[-1]
        if name in unordered_names:
            yield Finding(relpath, lineno, "unordered-iter",
                          f"iteration over unordered container `{name}` — "
                          "hash order must not feed results; sort first or "
                          "justify with an allow annotation")
    for lineno, _line, m in iter_line_matches(clean_lines, iter_pair):
        if m.group(1) in unordered_names:
            yield Finding(relpath, lineno, "unordered-iter",
                          f"iterator-pair traversal of unordered container "
                          f"`{m.group(1)}` — hash order must not feed "
                          "results")


PTR_ORDER_PAT = re.compile(
    r"std::(?:set|map)\s*<\s*(?:const\s+)?[\w:]+\s*\*"
    r"|reinterpret_cast\s*<\s*(?:std::)?u?intptr_t\s*>")


def check_ptr_order(relpath, clean_lines):
    for lineno, _line, m in iter_line_matches(clean_lines, PTR_ORDER_PAT):
        yield Finding(relpath, lineno, "ptr-order",
                      f"pointer-value ordering `{m.group(0).strip()}` — "
                      "address order is nondeterministic unless "
                      "slab-relative on purpose")


RAW_PARSE_PAT = re.compile(
    r"\b(atoi|atol|atoll|strtol|strtoul|strtoull|strtod|sscanf)\s*\("
    r"|\bstd::sto(?:i|l|ul|ull|ll|d|f)\s*\(")


def check_raw_parse(relpath, clean_lines):
    for lineno, _line, m in iter_line_matches(clean_lines, RAW_PARSE_PAT):
        yield Finding(relpath, lineno, "raw-parse",
                      f"raw numeric parse `{m.group(0).strip()}` — use "
                      "core::parse_number (src/core/search.h), which "
                      "rejects garbage and overflow")


RAW_BYTES_PAT = re.compile(
    r"(?:<<|>>)\s*\(\s*(?:8\s*\*\s*\w+|\w+\s*\*\s*8)\s*\)")


def check_raw_bytes(relpath, clean_lines):
    for lineno, _line, m in iter_line_matches(clean_lines, RAW_BYTES_PAT):
        yield Finding(relpath, lineno, "raw-bytes",
                      f"hand-rolled little-endian shift `{m.group(0)}` — "
                      "use core::append_le / store_le / load_le "
                      "(dmm/core/checked_file.h)")


DOC_REF_PAT = re.compile(r"(?<![\w./-])([\w./-]*\w\.md)\b")


def check_doc_ref(relpath, path, comment_lines, doc_root):
    here = os.path.dirname(path)
    for lineno, _line, m in iter_line_matches(comment_lines, DOC_REF_PAT):
        ref = m.group(1)
        if os.path.isfile(os.path.join(doc_root, ref)) or os.path.isfile(
                os.path.join(here, ref)):
            continue
        yield Finding(relpath, lineno, "doc-ref",
                      f"comment names `{ref}`, which does not exist in the "
                      "repo — state the note inline or point to a document "
                      "that exists")


def discover_files(root, compdb):
    """Translation units from the compilation database plus all project
    headers; falls back to walking the source dirs without a compdb."""
    files = set()
    if compdb and os.path.isfile(compdb):
        with open(compdb, encoding="utf-8") as f:
            for entry in json.load(f):
                path = os.path.normpath(
                    os.path.join(entry.get("directory", ""), entry["file"]))
                if path.startswith(os.path.abspath(root) + os.sep):
                    files.add(path)
    for sub in SCAN_DIRS:
        base = os.path.join(root, sub)
        for dirpath, _dirs, names in os.walk(base):
            for name in names:
                if name.endswith((".h", ".hpp")) or (
                        not files and name.endswith(".cpp")):
                    files.add(os.path.join(dirpath, name))
    return sorted(f for f in files if f.endswith((".h", ".hpp", ".cpp")))


def lint_files(root, paths, scoped=True, doc_root=None):
    """Runs every rule over `paths`.  With scoped=False (self-test), all
    rules apply to every file and whitelists are ignored.  Documents named
    in comments resolve against `doc_root` (default: `root`)."""
    doc_root = doc_root or root
    raw = {}
    clean = {}
    comments = {}
    for path in paths:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        raw[path] = text.splitlines()
        clean[path], comments[path] = split_comments(text)

    unordered_names = collect_unordered_names(clean)
    findings = []
    for path in paths:
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        clean_lines = clean[path].splitlines()
        comment_lines = comments[path].splitlines()
        allowed = build_allow_map(raw[path])

        checks = [check_doc_ref(rel, path, comment_lines, doc_root)]
        if scoped:
            # The capture shim feeds the determinism-sensitive trace
            # pipeline, so it gets the same nondet / iteration-order /
            # pointer-order discipline as src/.
            in_scope = (rel.startswith("src/") or
                        rel.startswith("tools/dmm_capture/"))
            if in_scope:
                checks.append(check_nondet(rel, clean_lines))
                checks.append(check_unordered_iter(rel, clean_lines,
                                                   unordered_names))
                checks.append(check_ptr_order(rel, clean_lines))
            if rel not in RAW_PARSE_WHITELIST and not rel.startswith(
                    "tests/"):
                checks.append(check_raw_parse(rel, clean_lines))
            if rel not in RAW_BYTES_WHITELIST and not rel.startswith(
                    "tests/"):
                checks.append(check_raw_bytes(rel, clean_lines))
        else:
            checks += [
                check_nondet(rel, clean_lines),
                check_unordered_iter(rel, clean_lines, unordered_names),
                check_ptr_order(rel, clean_lines),
                check_raw_parse(rel, clean_lines),
                check_raw_bytes(rel, clean_lines),
            ]
        for gen in checks:
            for finding in gen:
                if finding.line in allowed.get(finding.rule, ()):
                    continue
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def self_test():
    here = os.path.dirname(os.path.abspath(__file__))
    fixture_dir = os.path.join(here, "fixtures")
    paths = sorted(
        os.path.join(fixture_dir, n) for n in os.listdir(fixture_dir)
        if n.endswith(".cpp"))
    if not paths:
        print("dmm_lint self-test: no fixtures found", file=sys.stderr)
        return 1

    expected = set()
    for path in paths:
        rel = os.path.relpath(path, here).replace(os.sep, "/")
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                m = EXPECT_RE.search(line)
                if m:
                    expected.add((rel, lineno, m.group(1)))

    repo_root = os.path.dirname(os.path.dirname(here))
    findings = lint_files(here, paths, scoped=False, doc_root=repo_root)
    got = {(f.path, f.line, f.rule) for f in findings}

    ok = True
    for miss in sorted(expected - got):
        print(f"self-test MISSED violation: {miss[0]}:{miss[1]} "
              f"[{miss[2]}]", file=sys.stderr)
        ok = False
    for extra in sorted(got - expected):
        print(f"self-test UNEXPECTED finding: {extra[0]}:{extra[1]} "
              f"[{extra[2]}]", file=sys.stderr)
        ok = False
    exercised = {rule for (_p, _l, rule) in expected}
    for rule in RULES:
        if rule not in exercised:
            print(f"self-test: rule `{rule}` has no fixture",
                  file=sys.stderr)
            ok = False
    if ok:
        print(f"dmm_lint self-test: {len(expected)} seeded violations "
              f"across {len(paths)} fixtures, all detected; "
              f"all {len(RULES)} rules exercised")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument("--compdb", default=None,
                    help="compile_commands.json for TU discovery")
    ap.add_argument("--report", default=None,
                    help="also write findings to this file")
    ap.add_argument("--self-test", action="store_true",
                    help="run the rules over the seeded fixtures")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    root = os.path.abspath(args.root)
    paths = discover_files(root, args.compdb)
    if not paths:
        print("dmm_lint: no files to scan (bad --root?)", file=sys.stderr)
        return 2
    findings = lint_files(root, paths)

    lines = [str(f) for f in findings]
    for line in lines:
        print(line)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + ("\n" if lines else ""))
            f.write(f"# {len(findings)} finding(s) over {len(paths)} "
                    f"files\n")
    print(f"dmm_lint: {len(findings)} finding(s) over {len(paths)} files",
          file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
