// Project lint — determinism-oriented static checks over src/ and the build
// files (docs/ANALYSIS.md documents each rule). Dependency-free C++ so CI
// can compile and run it with nothing but the toolchain:
//
//   g++ -std=c++20 -O1 tools/lint/lint.cpp -o lint && ./lint <repo-root>
//
// Rules (suppress a single line with `// lint:allow(<rule>)`):
//
//   no-thread-outside-runtime  Thread creation (std::thread ctor,
//                              std::jthread, std::async) is confined to
//                              src/runtime/ — everything else must go
//                              through the deterministic pool. Qualified
//                              uses (std::thread::id,
//                              ::hardware_concurrency) are fine anywhere.
//   no-rand-time-outside-rng   rand()/srand()/drand48/std::random_device
//                              and wall-clock time() are banned outside
//                              src/common/rng.h: all randomness flows
//                              through the seeded Rng streams, and nothing
//                              numeric may depend on the clock.
//   env-via-helpers            getenv/setenv/putenv appear only in
//                              src/common/env.cpp — every configuration
//                              read goes through the strict adaqp::env
//                              helpers (common/env.h).
//   include-hygiene            Headers carry #pragma once; no "../" paths
//                              in includes (all project includes are rooted
//                              at src/).
//   ffp-contract-off           Every src/simd/kernels_*.cpp TU is listed in
//                              a set_source_files_properties() block that
//                              applies ${ADAQP_KERNEL_FLAGS}, and that
//                              variable pins -ffp-contract=off — the
//                              unfused multiply-add rule of the determinism
//                              contract (docs/ARCHITECTURE.md).
//   hot-path-alloc             Files annotated `// lint:hot-path-file`
//                              participate in the zero-allocation
//                              steady-state contract (docs/ARCHITECTURE.md,
//                              "Memory subsystem"): raw new-expressions,
//                              make_unique/make_shared, and std::vector
//                              growth calls (push_back / emplace_back /
//                              resize / reserve / assign) must each carry a
//                              lint:allow(hot-path-alloc) stating why the
//                              allocation is warmup- or build-time only.
//                              New steady-state allocations are caught
//                              dynamically by bench_alloc_steady_state;
//                              this rule makes the reviewer-visible intent
//                              explicit at the line that allocates.
//   sockets-in-transport       Raw socket headers (<sys/socket.h>,
//                              <netinet/...>, <arpa/inet.h>, <poll.h>) and
//                              socket syscalls (socket/connect/bind/listen/
//                              accept4/setsockopt/getsockname/poll) are
//                              confined to src/transport/ — the rest of the
//                              tree stays wire-agnostic behind the
//                              Transport interface (docs/TRANSPORT.md).
//
// Exit status: 0 clean, 1 violations, 2 usage/IO error.
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Violation {
  std::string path;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

std::vector<Violation> g_violations;

void report(const fs::path& path, std::size_t line, const std::string& rule,
            const std::string& message) {
  g_violations.push_back({path.generic_string(), line, rule, message});
}

bool is_ident(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// True when `token` occurs in `line` preceded by a non-identifier
/// character (or line start), at any position.
bool has_token(const std::string& line, const std::string& token) {
  std::size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    if (pos == 0 || !is_ident(line[pos - 1])) return true;
    pos += token.size();
  }
  return false;
}

/// Like has_token, but rejects matches immediately followed by "::" — used
/// to allow std::thread::id / ::hardware_concurrency while flagging the
/// constructor.
bool has_token_not_qualified(const std::string& line,
                             const std::string& token) {
  std::size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    const bool boundary_before = pos == 0 || !is_ident(line[pos - 1]);
    const std::size_t after = pos + token.size();
    const bool qualified = line.compare(after, 2, "::") == 0;
    if (boundary_before && !qualified) return true;
    pos = after;
  }
  return false;
}

/// True when `code` contains a new-expression: the keyword `new` with
/// identifier boundaries on both sides (so `renew` / `new_value` never
/// match). Comments and literals are already stripped by the caller.
bool has_new_expr(const std::string& code) {
  std::size_t pos = 0;
  while ((pos = code.find("new", pos)) != std::string::npos) {
    const bool boundary_before = pos == 0 || !is_ident(code[pos - 1]);
    const std::size_t after = pos + 3;
    const bool boundary_after =
        after >= code.size() || !is_ident(code[after]);
    if (boundary_before && boundary_after) return true;
    pos = after;
  }
  return false;
}

bool allows(const std::string& raw_line, const std::string& rule) {
  return raw_line.find("lint:allow(" + rule + ")") != std::string::npos;
}

/// Strip comments and string/char literal contents from one line so token
/// scans never fire on prose or message text. `in_block` tracks a /* ... */
/// spanning lines. Literal delimiters are kept; contents are blanked.
std::string strip_code_line(const std::string& line, bool& in_block) {
  std::string out;
  out.reserve(line.size());
  std::size_t i = 0;
  while (i < line.size()) {
    if (in_block) {
      if (line.compare(i, 2, "*/") == 0) {
        in_block = false;
        i += 2;
      } else {
        ++i;
      }
      continue;
    }
    const char c = line[i];
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') break;
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
      in_block = true;
      i += 2;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      out += quote;
      ++i;
      while (i < line.size()) {
        if (line[i] == '\\' && i + 1 < line.size()) {
          i += 2;
          continue;
        }
        if (line[i] == quote) {
          out += quote;
          ++i;
          break;
        }
        ++i;
      }
      continue;
    }
    out += c;
    ++i;
  }
  return out;
}

void lint_source_file(const fs::path& root, const fs::path& path) {
  std::ifstream in(path);
  if (!in) {
    report(path, 0, "io", "cannot open file");
    return;
  }
  const std::string rel = fs::relative(path, root).generic_string();
  const bool in_runtime = rel.rfind("src/runtime/", 0) == 0;
  const bool is_rng = rel == "src/common/rng.h" || rel == "src/common/rng.cpp";
  const bool is_env_impl = rel == "src/common/env.cpp";
  const bool in_transport = rel.rfind("src/transport/", 0) == 0;
  const bool is_header = path.extension() == ".h";

  std::vector<std::string> lines;
  for (std::string raw; std::getline(in, raw);) lines.push_back(raw);

  // The hot-path-alloc rule applies to the whole file once the marker
  // appears anywhere in it (by convention, in the header comment).
  bool hot_path_file = false;
  for (const std::string& l : lines)
    if (l.find("lint:hot-path-file") != std::string::npos) {
      hot_path_file = true;
      break;
    }

  bool saw_pragma_once = false;
  bool in_block = false;
  std::size_t lineno = 0;
  for (const std::string& raw : lines) {
    ++lineno;
    const std::string code = strip_code_line(raw, in_block);

    if (is_header && code.find("#pragma once") != std::string::npos)
      saw_pragma_once = true;
    if (code.find("#include \"../") != std::string::npos &&
        !allows(raw, "include-hygiene"))
      report(path, lineno, "include-hygiene",
             "include paths must be rooted at src/, not relative (\"../\")");

    if (!in_runtime && !allows(raw, "no-thread-outside-runtime")) {
      if (has_token_not_qualified(code, "std::thread") ||
          has_token(code, "std::jthread") || has_token(code, "std::async"))
        report(path, lineno, "no-thread-outside-runtime",
               "thread creation outside src/runtime/ — use the "
               "deterministic pool (runtime/parallel_for.h)");
    }

    if (!is_rng && !allows(raw, "no-rand-time-outside-rng")) {
      if (has_token(code, "rand(") || has_token(code, "srand(") ||
          has_token(code, "drand48") || has_token(code, "random_device") ||
          has_token(code, "time("))
        report(path, lineno, "no-rand-time-outside-rng",
               "nondeterministic randomness/clock seeding outside "
               "src/common/rng.h — draw from a seeded Rng stream");
    }

    if (hot_path_file && !allows(raw, "hot-path-alloc")) {
      if (has_new_expr(code) || has_token(code, "make_unique") ||
          has_token(code, "make_shared") || has_token(code, "push_back") ||
          has_token(code, "emplace_back") || has_token(code, "resize") ||
          has_token(code, "reserve") || has_token(code, "assign"))
        report(path, lineno, "hot-path-alloc",
               "allocation/growth in a hot-path file — make the buffer a "
               "persistent member sized at construction, or annotate "
               "warmup-only lines with lint:allow(hot-path-alloc)");
    }

    if (!in_transport && !allows(raw, "sockets-in-transport")) {
      const bool socket_include =
          code.find("<sys/socket.h>") != std::string::npos ||
          code.find("<netinet/") != std::string::npos ||
          code.find("<arpa/inet.h>") != std::string::npos ||
          code.find("<poll.h>") != std::string::npos;
      if (socket_include || has_token(code, "socket(") ||
          has_token(code, "accept4(") || has_token(code, "setsockopt") ||
          has_token(code, "getsockname") || has_token(code, "poll("))
        report(path, lineno, "sockets-in-transport",
               "raw socket usage outside src/transport/ — go through the "
               "Transport interface (transport/transport.h)");
    }

    if (!is_env_impl && !allows(raw, "env-via-helpers")) {
      if (has_token(code, "getenv") || has_token(code, "setenv") ||
          has_token(code, "putenv"))
        report(path, lineno, "env-via-helpers",
               "environment access outside src/common/env.cpp — use the "
               "strict helpers in common/env.h");
    }
  }

  if (is_header && !saw_pragma_once)
    report(path, 1, "include-hygiene", "header is missing #pragma once");
}

/// ffp-contract-off: parse CMakeLists.txt for the kernel-flag variable and
/// the set_source_files_properties() coverage of every kernel TU on disk.
void lint_kernel_flags(const fs::path& root) {
  const fs::path cmake_path = root / "CMakeLists.txt";
  std::ifstream in(cmake_path);
  if (!in) {
    report(cmake_path, 0, "ffp-contract-off", "cannot open CMakeLists.txt");
    return;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  const std::size_t flags_pos = text.find("set(ADAQP_KERNEL_FLAGS");
  if (flags_pos == std::string::npos ||
      text.find("-ffp-contract=off", flags_pos) == std::string::npos) {
    report(cmake_path, 1, "ffp-contract-off",
           "ADAQP_KERNEL_FLAGS must be defined and pin -ffp-contract=off");
    return;
  }

  // Collect the argument text of every set_source_files_properties(...)
  // call that applies ${ADAQP_KERNEL_FLAGS}.
  std::string covered;
  std::size_t pos = 0;
  while ((pos = text.find("set_source_files_properties", pos)) !=
         std::string::npos) {
    const std::size_t open = text.find('(', pos);
    if (open == std::string::npos) break;
    int depth = 1;
    std::size_t end = open + 1;
    while (end < text.size() && depth > 0) {
      if (text[end] == '(') ++depth;
      if (text[end] == ')') --depth;
      ++end;
    }
    const std::string call = text.substr(open, end - open);
    if (call.find("ADAQP_KERNEL_FLAGS") != std::string::npos) covered += call;
    pos = end;
  }

  for (const auto& entry : fs::directory_iterator(root / "src" / "simd")) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("kernels_", 0) != 0 ||
        entry.path().extension() != ".cpp")
      continue;
    if (covered.find(name) == std::string::npos)
      report(cmake_path, 1, "ffp-contract-off",
             "src/simd/" + name +
                 " is not covered by a set_source_files_properties() block "
                 "applying ${ADAQP_KERNEL_FLAGS}");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const fs::path root = argc > 1 ? fs::path(argv[1]) : fs::current_path();
  if (!fs::exists(root / "src")) {
    std::cerr << "lint: " << root.generic_string()
              << " does not look like the repo root (no src/)\n";
    return 2;
  }

  for (const auto& entry : fs::recursive_directory_iterator(root / "src")) {
    if (!entry.is_regular_file()) continue;
    const auto ext = entry.path().extension();
    if (ext != ".cpp" && ext != ".h") continue;
    lint_source_file(root, entry.path());
  }
  lint_kernel_flags(root);

  for (const Violation& v : g_violations)
    std::cerr << v.path << ":" << v.line << ": [" << v.rule << "] "
              << v.message << "\n";
  if (g_violations.empty()) {
    std::cout << "lint: clean\n";
    return 0;
  }
  std::cerr << "lint: " << g_violations.size() << " violation(s)\n";
  return 1;
}
