#!/usr/bin/env python3
"""Self-test for tools/scalocate_lint.py.

Every lint rule is exercised twice on fixture snippets written to a temp
tree: once on a fixture that MUST fire (proving the rule detects the
violation it exists for) and once on a fixture that MUST pass (proving it
does not cry wolf). A final test runs the full lint against the real
repository and requires zero findings — the same invocation CI's
static-analysis job uses. tools/check_tile_symbols.py gets the same
fire/pass treatment on canned `nm` listings (ctest runs it on the built
library as tile_symbols).

Run directly (python3 tests/test_lint.py) or via ctest (lint_selftest).
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_tile_symbols as tile_symbols  # noqa: E402
import scalocate_lint as lint  # noqa: E402


def make_tree(files: dict[str, str]) -> tempfile.TemporaryDirectory:
    tmp = tempfile.TemporaryDirectory(prefix="scalocate_lint_fixture_")
    for rel, content in files.items():
        path = Path(tmp.name) / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    return tmp


# Minimal taxonomy header shared by the error-taxonomy fixtures; mirrors the
# real src/common/error.hpp structure (base, mixin, parseable terminal list).
ERROR_HPP = """\
class Error {};
class Transient {};
// scalocate-lint: terminal-errors
//   Okay
// scalocate-lint: end-terminal-errors
class Okay : public Error {};
class Fine : public Error, public Transient {};
"""


class MemoryOrderRule(unittest.TestCase):
    SNIPPET = "void f(std::atomic<int>& a) { a.load(std::memory_order_relaxed); }\n"

    def test_fires_outside_allowlist(self):
        with make_tree({"src/core/hot.cpp": self.SNIPPET}) as root:
            findings = lint.check_memory_order(Path(root))
        self.assertEqual(len(findings), 1)
        self.assertIn("src/core/hot.cpp:1", findings[0])
        self.assertIn("[memory-order]", findings[0])

    def test_passes_in_allowlisted_file(self):
        with make_tree({"src/obs/hot.cpp": self.SNIPPET}) as root:
            self.assertEqual(lint.check_memory_order(Path(root)), [])

    def test_comment_mention_does_not_fire(self):
        with make_tree({"src/core/doc.cpp":
                        "// beware memory_order_relaxed here\nint x;\n"}) as root:
            self.assertEqual(lint.check_memory_order(Path(root)), [])

    def test_fires_on_stale_allowlist_entry(self):
        allowlist = {"src/obs/": "live", "src/runtime/gone.": "deleted file"}
        with make_tree({"src/obs/hot.cpp": self.SNIPPET}) as root:
            findings = lint.check_memory_order_allowlist(Path(root), allowlist)
        self.assertEqual(len(findings), 1)
        self.assertIn("src/runtime/gone.", findings[0])
        self.assertIn("[memory-order]", findings[0])

    def test_passes_on_live_allowlist_entry(self):
        with make_tree({"src/obs/hot.cpp": self.SNIPPET}) as root:
            self.assertEqual(lint.check_memory_order_allowlist(
                Path(root), {"src/obs/": "live"}), [])


class ErrorTaxonomyRule(unittest.TestCase):
    def test_fires_on_unclassified_error(self):
        files = {"src/common/error.hpp": ERROR_HPP,
                 "src/api/rogue.hpp": "class Rogue : public Error {};\n"}
        with make_tree(files) as root:
            findings = lint.check_error_taxonomy(Path(root))
        self.assertEqual(len(findings), 1)
        self.assertIn("Rogue", findings[0])
        self.assertIn("[error-taxonomy]", findings[0])

    def test_fires_on_stale_terminal_entry(self):
        hpp = ERROR_HPP.replace("//   Okay", "//   Okay, Ghost")
        with make_tree({"src/common/error.hpp": hpp}) as root:
            findings = lint.check_error_taxonomy(Path(root))
        self.assertEqual(len(findings), 1)
        self.assertIn("Ghost", findings[0])

    def test_passes_when_all_classified(self):
        # Classification is transitive: Sub derives Error via Fine and
        # inherits Fine's Transient mixin.
        files = {"src/common/error.hpp": ERROR_HPP,
                 "src/api/sub.hpp": "class Sub : public Fine {};\n"}
        with make_tree(files) as root:
            self.assertEqual(lint.check_error_taxonomy(Path(root)), [])


class MetricDriftRule(unittest.TestCase):
    README = """\
## Observability

| Layer | Instruments |
|---|---|
| engine | `engine.<model>.requests` counter |

## Next section
"""
    CODE = 'void reg(R& r, std::string p) { r.counter(p + ".requests"); }\n'

    def test_passes_when_in_sync(self):
        with make_tree({"README.md": self.README,
                        "src/svc.cpp": self.CODE}) as root:
            self.assertEqual(lint.check_metric_drift(Path(root)), [])

    def test_fires_on_undocumented_registration(self):
        code = self.CODE + 'void reg2(R& r, std::string p) { r.counter(p + ".bogus"); }\n'
        with make_tree({"README.md": self.README,
                        "src/svc.cpp": code}) as root:
            findings = lint.check_metric_drift(Path(root))
        self.assertEqual(len(findings), 1)
        self.assertIn("bogus", findings[0])
        self.assertIn("[metric-drift]", findings[0])

    def test_fires_on_unregistered_documented_instrument(self):
        readme = self.README.replace(
            "`engine.<model>.requests` counter",
            "`engine.<model>.requests`/`.ghost` counters")
        with make_tree({"README.md": readme,
                        "src/svc.cpp": self.CODE}) as root:
            findings = lint.check_metric_drift(Path(root))
        self.assertEqual(len(findings), 1)
        self.assertIn("ghost", findings[0])
        self.assertIn("README.md", findings[0])

    def test_dynamic_leaf_allowlist_covers_runtime_names(self):
        readme = self.README.replace(
            "`engine.<model>.requests` counter",
            "`engine.<model>.requests` counter, `k.<m>x<n>.ns` histograms")
        with make_tree({"README.md": readme,
                        "src/svc.cpp": self.CODE}) as root, \
                mock.patch.dict(lint.DYNAMIC_METRIC_LEAVES, {"ns": "runtime"}):
            findings = lint.check_metric_drift(Path(root))
        # ".ns" has no literal in the fixture code either, but it is a
        # declared dynamic name (DYNAMIC_METRIC_LEAVES), so no finding.
        self.assertEqual(findings, [])


class HeaderUsingRule(unittest.TestCase):
    def test_fires_at_namespace_scope(self):
        hpp = "namespace foo {\nusing namespace std;\n}\n"
        with make_tree({"src/a.hpp": hpp}) as root:
            findings = lint.check_header_using(Path(root))
        self.assertEqual(len(findings), 1)
        self.assertIn("src/a.hpp:2", findings[0])
        self.assertIn("[header-using]", findings[0])

    def test_fires_at_file_scope(self):
        with make_tree({"src/a.hpp": "using namespace std;\n"}) as root:
            self.assertEqual(len(lint.check_header_using(Path(root))), 1)

    def test_passes_inside_function_body(self):
        hpp = ("namespace foo {\n"
               "inline void f() {\n"
               "  using namespace std;\n"
               "}\n"
               "}\n")
        with make_tree({"src/b.hpp": hpp}) as root:
            self.assertEqual(lint.check_header_using(Path(root)), [])

    def test_ignores_comments_strings_and_cpp_files(self):
        files = {"src/c.hpp": ('// using namespace std;\n'
                               '/* using namespace std; */\n'
                               'inline const char* s() '
                               '{ return "using namespace std;"; }\n'),
                 "src/d.cpp": "using namespace std;\n"}
        with make_tree(files) as root:
            self.assertEqual(lint.check_header_using(Path(root)), [])


class TestOnlyApiRule(unittest.TestCase):
    HPP = ("namespace k {\n"
           "/// Only tests call this.\n"
           "void only_tests(int x);\n"
           "std::vector<float> used(const float* x,\n"
           "                        int n);\n"
           "class Box {\n"
           " public:\n"
           "  int member() const;\n"
           "};\n"
           "}  // namespace k\n")
    CPP = ("void only_tests(int x) { (void)x; }\n"
           "std::vector<float> used(const float* x, int n) { return {}; }\n"
           "int Box::member() const { return 0; }\n")
    # Named in tests/, in a comment and in a string: none of it is a caller.
    TEST = "TEST(A, B) { only_tests(1); used(nullptr, 0); }\n"
    MENTIONS = ('// only_tests() is handy\n'
                'const char* s = "only_tests: bad";\n')

    def tree(self, callers: dict[str, str]) -> dict[str, str]:
        # The example names Box, so only the functions are in question.
        files = {"src/k/a.hpp": self.HPP, "src/k/a.cpp": self.CPP,
                 "tests/test_a.cpp": self.TEST,
                 "src/k/mentions.cpp": self.MENTIONS,
                 "examples/box.cpp": "k::Box box;\n"}
        files.update(callers)
        return files

    def test_fires_on_function_only_tests_call(self):
        files = self.tree({"src/k/b.cpp": "int f() { return used(0, 0)[0]; }\n"})
        with make_tree(files) as root:
            findings = lint.check_test_only_api(Path(root), {})
        self.assertEqual(len(findings), 1)
        self.assertIn("src/k/a.hpp:3", findings[0])
        self.assertIn("only_tests()", findings[0])
        self.assertIn("[test-only-api]", findings[0])

    def test_passes_with_callers_outside_tests(self):
        # Callers count from bench/, examples/ and perfbench/ too; members
        # (Box::member, called nowhere) are out of scope.
        for top in ("src/k", "bench", "examples", "perfbench/src"):
            files = self.tree({
                f"{top}/caller.cpp": "void g() { only_tests(2); }\n",
                "bench/other.hpp": "inline auto h = &used;\n"})
            with self.subTest(top=top), make_tree(files) as root:
                self.assertEqual(lint.check_test_only_api(Path(root), {}), [])

    def test_passes_on_allowlisted_function(self):
        files = self.tree({"src/k/b.cpp": "int f() { return used(0, 0)[0]; }\n"})
        with make_tree(files) as root:
            self.assertEqual(lint.check_test_only_api(
                Path(root), {"only_tests": "oracle"}), [])

    # One name in two namespaces: a use counts only for the declaration
    # whose innermost namespace qualifies it or encloses it.
    TWINS = {"src/k/one.hpp": "namespace one {\nvoid twin(int x);\n}\n",
             "src/k/two.hpp": "namespace k::two {\nvoid twin(int x);\n}\n"}

    def test_fires_when_one_of_two_same_named_functions_has_a_caller(self):
        for caller in ("void g() { one::twin(1); }\n",
                       "namespace one {\nvoid g() { twin(1); }\n}\n"):
            files = {**self.TWINS, "src/k/c.cpp": caller}
            with self.subTest(caller=caller), make_tree(files) as root:
                findings = lint.check_test_only_api(Path(root), {})
                self.assertEqual(len(findings), 1, findings)
                self.assertIn("src/k/two.hpp:2", findings[0])
                self.assertIn("two::twin()", findings[0])

    def test_passes_when_both_same_named_functions_have_callers(self):
        for caller in ("void g() { one::twin(1); k::two::twin(2); }\n",
                       "namespace k::two {\nvoid g() { twin(2); }\n}\n"
                       "void h() { one :: twin(1); }\n"):
            files = {**self.TWINS, "src/k/c.cpp": caller}
            with self.subTest(caller=caller), make_tree(files) as root:
                self.assertEqual(lint.check_test_only_api(Path(root), {}), [])

    def test_fires_on_stale_allowlist_entries(self):
        files = self.tree({"src/k/b.cpp": "void g() { only_tests(2); }\n",
                           "examples/e.cpp": "int f() { return used(0, 0)[0]; }\n"})
        allowlist = {"gone": "deleted function", "only_tests": "gained a caller"}
        with make_tree(files) as root:
            findings = lint.check_test_only_api(Path(root), allowlist)
        self.assertEqual(len(findings), 2)
        self.assertIn("'gone' names no function", findings[0])
        self.assertIn("'only_tests' has a caller", findings[1])
        for f in findings:
            self.assertIn("[test-only-api]", f)


class TestOnlyClassRule(unittest.TestCase):
    # Box is named only in its header, its member definitions, a test, a
    # comment and a string.
    HPP = ("namespace k {\n"
           "class Box {\n"
           " public:\n"
           "  static Box all();\n"
           "  int member() const;\n"
           "};\n"
           "}  // namespace k\n")
    CPP = ("namespace k {\n"
           "Box Box::all() { return Box(); }\n"
           "int Box::member() const { return 0; }\n"
           "}  // namespace k\n")
    TEST = "TEST(A, B) { EXPECT_EQ(k::Box::all().member(), 0); }\n"
    MENTIONS = '// Box is handy\nconst char* s = "Box";\n'

    def tree(self, users: dict[str, str]) -> dict[str, str]:
        files = {"src/k/box.hpp": self.HPP, "src/k/box.cpp": self.CPP,
                 "tests/test_box.cpp": self.TEST,
                 "src/k/mentions.cpp": self.MENTIONS}
        files.update(users)
        return files

    def test_fires_on_class_only_tests_name(self):
        with make_tree(self.tree({})) as root:
            findings = lint.check_test_only_api(Path(root), {})
        self.assertEqual(len(findings), 1, findings)
        self.assertIn("src/k/box.hpp:2", findings[0])
        self.assertIn("class Box", findings[0])
        self.assertIn("[test-only-api]", findings[0])

    def test_passes_when_another_header_class_holds_it(self):
        holder = ("namespace k {\n"
                  "struct Holder {\n"
                  "  Box box;\n"
                  "};\n"
                  "}  // namespace k\n")
        files = self.tree({"src/k/holder.hpp": holder,
                           "bench/b.cpp": "k::Holder holder;\n"})
        with make_tree(files) as root:
            self.assertEqual(lint.check_test_only_api(Path(root), {}), [])

    def test_passes_when_a_bench_calls_a_static_member(self):
        files = self.tree({"bench/b.cpp":
                           "void f() {\n  auto box = k::Box::all();\n}\n"})
        with make_tree(files) as root:
            self.assertEqual(lint.check_test_only_api(Path(root), {}), [])

    def test_passes_on_allowlisted_class(self):
        with make_tree(self.tree({})) as root:
            self.assertEqual(lint.check_test_only_api(
                Path(root), {"Box": "test hook"}), [])

    def test_ignores_enums_nested_and_function_local_classes(self):
        hpp = ("namespace k {\n"
               "enum class Mode { kA, kB };\n"
               "class Used {\n"
               "  struct Inner { int x; };\n"
               "};\n"
               "inline int f() {\n"
               "  struct Local { int y; };\n"
               "  return Local{1}.y;\n"
               "}\n"
               "}  // namespace k\n")
        files = {"src/k/a.hpp": hpp,
                 "bench/b.cpp": "int g() { return k::f() + sizeof(k::Used); }\n"}
        with make_tree(files) as root:
            self.assertEqual(lint.check_test_only_api(Path(root), {}), [])

    def test_fires_on_stale_class_allowlist_entry(self):
        files = self.tree({"bench/b.cpp":
                           "void f() {\n  auto box = k::Box::all();\n}\n"})
        with make_tree(files) as root:
            findings = lint.check_test_only_api(Path(root),
                                                {"Box": "gained a use"})
        self.assertEqual(len(findings), 1, findings)
        self.assertIn("'Box' has a caller", findings[0])


class TileSymbolsCheck(unittest.TestCase):
    GUARDED = ["gemm_avx2.cpp.o", "gemm_avx512.cpp.o"]
    # `nm -A --defined-only libscalocate.a` lines: GNU nm prints
    # `archive:member:address`, llvm-nm puts a space before the address.
    ENTRIES = (
        "lib.a:gemm_avx2.cpp.o:0000000000000000 T "
        "_ZN9scalocate2nn7kernels6detail10sgemm_avx2EbbmmmfPKfmS4_mfPfm\n"
        "lib.a:gemm_avx512.cpp.o: 0000000000001290 T "
        "_ZN9scalocate2nn7kernels6detail12sgemm_avx512EbbmmmfPKfmS4_mfPfm\n"
        "lib.a:gemm.cpp.o:0000000000000150 T "
        "_ZN9scalocate2nn7kernels6detail13thread_pack_aEm\n")
    # One instantiation per TU namespace (portable::, avx2::, avx512::).
    PASS = ENTRIES + (
        "lib.a:gemm.cpp.o:0000000000000000 W "
        "_ZN9scalocate2nn7kernels6detail8portable12pack_block_aILm4EEEvbPKfmmmmmPf\n"
        "lib.a:gemm_avx2.cpp.o:0000000000000000 W "
        "_ZN9scalocate2nn7kernels6detail4avx212pack_block_aILm6EEEvbPKfmmmmmPf\n"
        "lib.a:gemm_avx512.cpp.o: 0000000000000000 W "
        "_ZN9scalocate2nn7kernels6detail6avx51212pack_block_aILm6EEEvbPKfmmmmmPf\n")
    # Without per-TU identity, the <6, 16> and <6, 32> tiles both define
    # pack_block_a<6> as the same weak symbol.
    SHARED = "_ZN9scalocate2nn7kernels6detail12pack_block_aILm6EEEvbPKfmmmmmPf"
    FIRE = ENTRIES + (
        f"lib.a:gemm_avx2.cpp.o:0000000000000000 W {SHARED}\n"
        f"lib.a:gemm_avx512.cpp.o: 0000000000000000 W {SHARED}\n")

    def test_fires_on_weak_symbol_shared_by_two_isa_objects(self):
        findings = tile_symbols.check(self.FIRE, self.GUARDED, True)
        self.assertEqual(len(findings), 2)  # once from each side
        for f in findings:
            self.assertIn(self.SHARED, f)
            self.assertIn("[tile-symbols]", f)
        self.assertTrue(findings[0].startswith("gemm_avx2.cpp.o:"))
        self.assertIn("gemm_avx512.cpp.o", findings[0])

    def test_fires_on_weak_symbol_shared_with_a_baseline_object(self):
        # std::min<unsigned long> is a weak symbol in every unoptimized TU
        # that calls it.
        std_min = "_ZSt3minImERKT_S2_S2_"
        listing = self.PASS + (
            f"lib.a:gemm_avx512.cpp.o: 0000000000000000 W {std_min}\n"
            f"lib.a:detector.cpp.o:0000000000000000 W {std_min}\n")
        findings = tile_symbols.check(listing, self.GUARDED, True)
        self.assertEqual(len(findings), 1)
        self.assertIn("detector.cpp.o", findings[0])

    def test_passes_with_per_tu_namespaces(self):
        self.assertEqual(tile_symbols.check(self.PASS, self.GUARDED, True), [])

    def test_fires_when_a_guarded_object_is_missing(self):
        listing = "\n".join(line for line in self.PASS.splitlines()
                            if "gemm_avx512" not in line)
        findings = tile_symbols.check(listing, self.GUARDED, True)
        self.assertEqual(len(findings), 1)
        self.assertIn("gemm_avx512.cpp.o", findings[0])
        # Off x86-64 the wide TUs compile empty, and that is not a finding.
        self.assertEqual(tile_symbols.check(listing, self.GUARDED, False), [])


class RepositoryIsClean(unittest.TestCase):
    def test_full_lint_has_zero_findings(self):
        findings = lint.run(REPO_ROOT)
        self.assertEqual(findings, [], "\n".join(findings))


if __name__ == "__main__":
    unittest.main(verbosity=2)
