// Prints the parse corpus's outcome records (tests/parse_corpus.hpp), one
// line each, for tests/data/parse_corpus.golden.  Messages are recorded
// without TGROOM_CHECK_MSG's "check failed: <expr> at <file>:<line> — "
// prefix, so no build path or source line lands in the file:
//
//   parse_golden > tests/data/parse_corpus.golden
//
// protocol_test compares the current parser against that file.
#include <cstdio>
#include <string>

#include "parse_corpus.hpp"

int main() {
  const auto corpus = tgroom::parse_corpus::build_corpus();
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const std::string line = tgroom::parse_corpus::record(
        i, corpus[i], /*strip_wrapper=*/true);
    std::puts(line.c_str());
  }
  return 0;
}
