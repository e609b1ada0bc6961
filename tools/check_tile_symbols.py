#!/usr/bin/env python3
"""Checks that no ISA-specific kernel object shares a weak symbol.

Each wide kernel tile (gemm_avx2.cpp, gemm_avx512.cpp) is compiled with its
own -m flags. An inline function or a template instantiation is a weak
symbol: when two archive members define the same one, the linker keeps one
copy for every caller. If it keeps the AVX-512 copy, an AVX2-only CPU that
runs the AVX2 tile executes AVX-512 instructions and dies with SIGILL.
gemm_blocked.hpp prevents this by giving every instantiation a per-TU
namespace; this check shows that it holds in the built archive.

The archive is listed with `nm -A --defined-only`. The check fails when a
weak symbol defined in a guarded member is also defined in any other
member. With --require-guarded (x86-64 builds) it also fails when a guarded
member defines no symbol at all, so it cannot pass vacuously.

Usage:
  python3 tools/check_tile_symbols.py --archive build/libscalocate.a \\
      --guard gemm_avx2.cpp.o --guard gemm_avx512.cpp.o \\
      [--require-guarded] [--nm nm]

Exit status is non-zero iff any finding is reported. tests/test_lint.py
runs the check on canned nm listings that must fire and must pass; ctest
runs it on the built library (tile_symbols).
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys

# Defined symbols the linker may merge across members: weak (W/w), weak
# objects (V/v) and GNU unique globals (u).
WEAK_TYPES = frozenset("WwVvu")

# `archive:member:address type name` (GNU nm) or with a space after the
# member's colon (llvm-nm).
_LINE = re.compile(
    r"^.*?:(?P<member>[^:\s]+):\s*[0-9a-fA-F]*\s+(?P<type>\S)\s+(?P<name>\S+)$")


def parse_listing(listing: str) -> dict[str, dict[str, str]]:
    """member -> {symbol: nm type letter}."""
    members: dict[str, dict[str, str]] = {}
    for line in listing.splitlines():
        m = _LINE.match(line.strip())
        if m:
            members.setdefault(m["member"], {})[m["name"]] = m["type"]
    return members


def check(listing: str, guarded: list[str],
          require_guarded: bool) -> list[str]:
    members = parse_listing(listing)
    findings = []
    for g in guarded:
        if g not in members:
            if require_guarded:
                findings.append(
                    f"{g}: [tile-symbols] the archive lists no symbol "
                    f"defined in this member, so nothing was checked; was "
                    f"the TU compiled empty or renamed?")
            continue
        for name, kind in sorted(members[g].items()):
            if kind not in WEAK_TYPES:
                continue
            others = sorted(m for m, syms in members.items()
                            if m != g and name in syms)
            if others:
                findings.append(
                    f"{g}: [tile-symbols] weak symbol {name} is also "
                    f"defined in {', '.join(others)}; the linker keeps one "
                    f"copy for every caller, so code built for one ISA can "
                    f"run on a CPU that lacks it. Give it a per-TU identity "
                    f"(see gemm_blocked.hpp)")
    return findings


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--archive", required=True, help="static library to check")
    ap.add_argument("--guard", action="append", default=[],
                    help="archive member compiled for a specific ISA "
                         "(repeatable)")
    ap.add_argument("--require-guarded", action="store_true",
                    help="fail when a guarded member defines no symbol")
    ap.add_argument("--nm", default="nm", help="nm executable")
    args = ap.parse_args(argv)
    proc = subprocess.run([args.nm, "-A", "--defined-only", args.archive],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        print(f"check_tile_symbols: {args.nm} failed on {args.archive}:\n"
              f"{proc.stderr}")
        return 1
    findings = check(proc.stdout, args.guard, args.require_guarded)
    for f in findings:
        print(f)
    print(f"check_tile_symbols: {len(findings)} finding(s) across "
          f"{len(args.guard)} guarded member(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
