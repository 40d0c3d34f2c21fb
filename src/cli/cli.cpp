#include "src/cli/cli.hpp"

#include <iostream>
#include <sstream>

#include "src/support/error.hpp"
#include "src/support/line_reader.hpp"

namespace automap::cli {

bool Args::has(const std::string& flag) const {
  for (const auto& [name, value] : flags_)
    if (name == flag) return true;
  return false;
}

std::string Args::value_or(const std::string& flag,
                           const std::string& fallback) const {
  for (const auto& [name, value] : flags_)
    if (name == flag) return value;
  return fallback;
}

int Args::int_or(const std::string& flag, int fallback) const {
  return has(flag) ? to_int<int>(value_or(flag), flag) : fallback;
}

double Args::num_or(const std::string& flag, double fallback) const {
  return has(flag) ? to_double(value_or(flag), flag) : fallback;
}

std::uint64_t Args::u64_or(const std::string& flag,
                           std::uint64_t fallback) const {
  return has(flag) ? to_int<std::uint64_t>(value_or(flag), flag) : fallback;
}

void CommandRegistry::add(Command command) {
  commands_.push_back(std::move(command));
}

const Command* CommandRegistry::find(const std::string& name) const {
  for (const Command& command : commands_)
    if (command.name == name) return &command;
  return nullptr;
}

std::string CommandRegistry::render_usage() const {
  std::ostringstream os;
  os << "usage: " << program_ << " <command> [arguments]\n\ncommands:\n";
  std::size_t width = 0;
  for (const Command& command : commands_)
    width = std::max(width, command.name.size());
  for (const Command& command : commands_) {
    os << "  " << command.name
       << std::string(width - command.name.size() + 2, ' ')
       << command.summary << "\n";
  }
  os << "\nrun '" << program_
     << " help <command>' (or <command> --help) for flags\n";
  return os.str();
}

std::string CommandRegistry::render_help(const Command& command) const {
  std::ostringstream os;
  os << "usage: " << program_ << " " << command.name;
  if (!command.positionals.empty()) os << " " << command.positionals;
  if (!command.flags.empty()) os << " [flags]";
  os << "\n\n" << command.summary << "\n";
  if (command.flags.empty()) return os.str();
  os << "\nflags:\n";
  std::size_t width = 0;
  for (const FlagSpec& flag : command.flags) {
    std::size_t w = flag.name.size();
    if (!flag.value_name.empty()) w += 1 + flag.value_name.size();
    width = std::max(width, w);
  }
  for (const FlagSpec& flag : command.flags) {
    std::string head = flag.name;
    if (!flag.value_name.empty()) head += " " + flag.value_name;
    os << "  " << head << std::string(width - head.size() + 2, ' ')
       << flag.help << "\n";
  }
  return os.str();
}

int CommandRegistry::run(int argc, char** argv) const {
  if (argc < 2) {
    std::cerr << render_usage();
    return 2;
  }
  const std::string name = argv[1];
  if (name == "help" || name == "--help" || name == "-h") {
    if (argc >= 3) {
      if (const Command* command = find(argv[2])) {
        std::cout << render_help(*command);
        return 0;
      }
      std::cerr << "unknown command: " << argv[2] << "\n" << render_usage();
      return 2;
    }
    std::cout << render_usage();
    return 0;
  }
  const Command* command = find(name);
  if (command == nullptr) {
    std::cerr << "unknown command: " << name << "\n" << render_usage();
    return 2;
  }

  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (token == "--help" || token == "-h") {
      std::cout << render_help(*command);
      return 0;
    }
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& flag : command->flags)
      if (flag.name == token) spec = &flag;
    if (spec != nullptr) {
      std::string value;
      if (!spec->value_name.empty()) {
        AM_REQUIRE(i + 1 < argc, token + " needs a value");
        value = argv[++i];
      }
      args.flags_.emplace_back(token, std::move(value));
    } else if (!token.empty() && token[0] == '-' && token != "-") {
      std::cerr << "unknown option: " << token << "\n"
                << render_help(*command);
      return 2;
    } else {
      args.positionals_.push_back(token);
    }
  }

  if (args.positionals_.size() < command->min_positional ||
      args.positionals_.size() > command->max_positional) {
    std::cerr << "expected " << command->positionals << "\n"
              << render_help(*command);
    return 2;
  }
  return command->run(args);
}

}  // namespace automap::cli
