// Standalone proof checker for the extended-DRAT logs this project's
// solver emits (see src/sat/proof.hpp for the format and src/check/drat.hpp
// for the checking discipline). Reads a proof from a file or stdin and
// verifies it with the independent backward checker: hinted lemmas by
// their hint chains, hint-free ones (legacy DRAT included) by RUP. The
// summary line says how many lemmas took each path.
//
//   $ ./drat_check proof.drat          # strict: every lemma checked
//   $ ./drat_check --targets proof.drat  # only the final/empty lemmas
//   $ ./allocate_file --certify --proof p.drat sys.prob && ./drat_check p.drat
//
// Exit status: 0 when the proof verifies, 1 when it is rejected,
// 2 on usage or I/O errors.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>

#include "check/drat.hpp"
#include "sat/proof.hpp"

using namespace optalloc;

int main(int argc, char** argv) {
  bool strict = true;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--targets") == 0) {
      strict = false;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "usage: %s [--targets] <proof-file|->\n", argv[0]);
      return 2;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr, "usage: %s [--targets] <proof-file|->\n", argv[0]);
    return 2;
  }

  sat::ProofLog log;
  std::string error;
  bool parsed = false;
  if (std::strcmp(path, "-") == 0) {
    parsed = log.parse_text(std::cin, &error);
  } else {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "error: cannot open %s\n", path);
      return 2;
    }
    parsed = log.parse_text(in, &error);
  }
  if (!parsed) {
    std::fprintf(stderr, "parse error: %s\n", error.c_str());
    return 2;
  }

  const check::DratResult res =
      strict ? check::check_proof_all(log) : check::check_proof(log);
  std::printf("steps: %zu  db-clauses: %zu  lemmas-checked: %zu "
              "(hinted: %zu  rup: %zu)  theory-checked: %zu\n",
              log.num_steps(), res.db_clauses, res.lemmas_checked,
              res.hinted_checked, res.rup_checked, res.theory_checked);
  if (res.ok) {
    std::printf("VERIFIED\n");
    return 0;
  }
  std::printf("REJECTED: %s\n", res.error.c_str());
  return 1;
}
