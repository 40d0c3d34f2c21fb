#pragma once

// Subcommand registry for the automap command-line tools.
//
// Every subcommand (search, explain, serve, …) registers one Command row:
// a name, a positional-argument signature, per-command flag specs and a
// run callback. The registry owns the shared mechanics that used to be
// copy-pasted per subcommand — flag parsing, arity checks, `--help`
// generation, unknown-command/-option diagnostics — so adding a command
// is one table entry, and `automap_cli serve` parses exactly like
// `automap_cli explain`.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace automap::cli {

/// One flag a command accepts. `value_name` empty means a boolean switch
/// (present/absent); otherwise the flag consumes the next argument.
/// `name` is the literal token, so single-dash flags ("-o") work too.
struct FlagSpec {
  std::string name;
  std::string value_name;
  std::string help;
};

/// Parsed invocation of one command: positional arguments in order plus
/// the flag values seen. Numeric accessors parse eagerly with the checked
/// conversions of src/support/line_reader.hpp; the Error naming the flag
/// becomes the tools' usual one-line "error:" diagnostic.
class Args {
 public:
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positionals_;
  }
  [[nodiscard]] const std::string& pos(std::size_t i) const {
    return positionals_.at(i);
  }

  [[nodiscard]] bool has(const std::string& flag) const;
  /// Value of a present valued flag; empty string when absent.
  [[nodiscard]] std::string value_or(const std::string& flag,
                                     const std::string& fallback = "") const;
  [[nodiscard]] int int_or(const std::string& flag, int fallback) const;
  [[nodiscard]] double num_or(const std::string& flag, double fallback) const;
  [[nodiscard]] std::uint64_t u64_or(const std::string& flag,
                                     std::uint64_t fallback) const;

 private:
  friend class CommandRegistry;
  std::vector<std::string> positionals_;
  std::vector<std::pair<std::string, std::string>> flags_;  // (name, value)
};

/// One subcommand row. `positionals` is the usage signature
/// ("<machine> <graph>"); min/max_positional bound the accepted count.
struct Command {
  std::string name;
  std::string positionals;
  std::string summary;
  std::size_t min_positional = 0;
  std::size_t max_positional = 0;
  std::vector<FlagSpec> flags;
  std::function<int(const Args&)> run;
};

class CommandRegistry {
 public:
  explicit CommandRegistry(std::string program)
      : program_(std::move(program)) {}

  void add(Command command);
  [[nodiscard]] const Command* find(const std::string& name) const;

  /// The one-screen usage summary listing every command (stderr on error,
  /// `help` / no arguments on stdout).
  [[nodiscard]] std::string render_usage() const;
  /// Generated per-command help: usage line, summary, flag table.
  [[nodiscard]] std::string render_help(const Command& command) const;

  /// Full dispatch: parses argv, handles `help` / `--help` / unknown
  /// commands / unknown flags / arity errors (exit code 2), then invokes
  /// the command. Exceptions from the command escape to the caller.
  int run(int argc, char** argv) const;

 private:
  std::string program_;
  std::vector<Command> commands_;
};

}  // namespace automap::cli
