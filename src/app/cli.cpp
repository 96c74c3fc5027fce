#include "app/cli.hpp"

#include <algorithm>
#include <cstdio>

namespace ncfn::app {

void CliFlags::add(std::string name, std::string metavar,
                   std::function<bool(std::string_view)> set) {
  flags_.push_back(Flag{std::move(name), std::move(metavar), std::move(set)});
}

void CliFlags::text(std::string flag, std::string metavar, std::string* out) {
  add(std::move(flag), std::move(metavar), [out](std::string_view v) {
    *out = v;
    return true;
  });
}

bool CliFlags::fail(std::string message) {
  error_ = std::move(message);
  return false;
}

bool CliFlags::scan(int argc, const char* const* argv) {
  if (argc < 2 || std::string_view(argv[1]).starts_with("-")) {
    return fail("missing <scenario-file>");
  }
  for (int i = 2; i < argc; i += 2) {
    const std::string_view name = argv[i];
    const auto flag =
        std::find_if(flags_.begin(), flags_.end(),
                     [name](const Flag& f) { return f.name == name; });
    if (flag == flags_.end()) {
      return fail("unknown flag '" + std::string(name) + "'");
    }
    if (i + 1 == argc || std::string_view(argv[i + 1]).starts_with("--")) {
      return fail(flag->name + " needs a value");
    }
    if (flag->seen) return fail(flag->name + " given twice");
    flag->seen = true;
    if (!flag->set(argv[i + 1])) {
      return fail("bad value for " + flag->name + ": '" + argv[i + 1] + "'");
    }
  }
  return true;
}

std::optional<std::string> CliFlags::parse(int argc, const char* const* argv) {
  if (!scan(argc, argv)) {
    std::fprintf(stderr, "%s\n%s\n", error_.c_str(),
                 usage(argc > 0 ? argv[0] : "ncfn").c_str());
    return std::nullopt;
  }
  return std::string(argv[1]);
}

std::string CliFlags::usage(const char* program) const {
  std::string out = std::string("usage: ") + program + " <scenario-file>";
  for (const Flag& f : flags_) out += " [" + f.name + " <" + f.metavar + ">]";
  return out;
}

bool write_file(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace ncfn::app
