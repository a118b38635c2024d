//===- corpus/CorpusIO.cpp -------------------------------------------------===//

#include "corpus/CorpusIO.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace fs = std::filesystem;

using namespace diffcode;
using namespace diffcode::corpus;

namespace {

bool fail(std::string *Error, const std::string &Message) {
  if (Error)
    *Error = Message;
  return false;
}

bool writeFile(const fs::path &Path, const std::string &Content,
               std::string *Error) {
  std::ofstream Out(Path);
  if (!Out)
    return fail(Error, "cannot write " + Path.string());
  Out << Content;
  // A full disk or I/O error surfaces on the stream state, possibly only
  // when the buffer flushes at close — an unchecked short write here
  // would round-trip a silently truncated corpus.
  Out.close();
  if (Out.fail())
    return fail(Error, "short write to " + Path.string());
  return true;
}

std::string metaToText(const rules::ProjectMetadata &Meta) {
  std::string Out;
  Out += "isAndroid=" + std::string(Meta.IsAndroid ? "true" : "false") + "\n";
  Out += "minSdkVersion=" + std::to_string(Meta.MinSdkVersion) + "\n";
  Out += "hasLinuxPrngFix=" +
         std::string(Meta.HasLinuxPrngFix ? "true" : "false") + "\n";
  return Out;
}

rules::ProjectMetadata metaFromText(const std::string &Text) {
  rules::ProjectMetadata Meta;
  for (const std::string &Line : split(Text, '\n')) {
    std::string_view Trimmed = trim(Line);
    std::size_t Eq = Trimmed.find('=');
    if (Eq == std::string_view::npos)
      continue;
    std::string_view Key = Trimmed.substr(0, Eq);
    std::string_view Value = Trimmed.substr(Eq + 1);
    if (Key == "isAndroid")
      Meta.IsAndroid = Value == "true";
    else if (Key == "minSdkVersion")
      Meta.MinSdkVersion = std::atoi(std::string(Value).c_str());
    else if (Key == "hasLinuxPrngFix")
      Meta.HasLinuxPrngFix = Value == "true";
  }
  return Meta;
}

std::string commitDirName(unsigned Index) {
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "c%04u", Index);
  return Buf;
}

/// Chunked fallback for sources mmap cannot serve: reads to EOF,
/// retrying short reads (a pipe writer filling in bursts must not look
/// like a smaller file). nullopt on a read error, with errno set.
std::optional<std::string> readStreaming(int Fd) {
  std::string Out;
  char Buf[1 << 16];
  for (;;) {
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N == 0)
      return Out;
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return std::nullopt;
    }
    Out.append(Buf, static_cast<std::size_t>(N));
  }
}

/// readFileContents, additionally reporting why a read failed: \p Err
/// receives the errno of the failing call (EISDIR for a directory).
std::optional<std::string> readContents(const std::string &Path, int &Err) {
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0) {
    Err = errno;
    return std::nullopt;
  }
  struct stat St;
  int StatRc = ::fstat(Fd, &St);
  if (StatRc != 0 || S_ISDIR(St.st_mode)) {
    Err = StatRc != 0 ? errno : EISDIR;
    ::close(Fd);
    return std::nullopt;
  }

  std::optional<std::string> Out;
  if (S_ISREG(St.st_mode) && St.st_size > 0) {
    // The batch-ingest fast path: map the file and copy it out in one
    // pre-sized allocation. The kernel serves the copy straight from the
    // page cache — no userspace double-buffer between disk and string.
    std::size_t Size = static_cast<std::size_t>(St.st_size);
    void *Map = ::mmap(nullptr, Size, PROT_READ, MAP_PRIVATE, Fd, 0);
    if (Map != MAP_FAILED) {
      Out.emplace(static_cast<const char *>(Map), Size);
      ::munmap(Map, Size);
    } else {
      Out = readStreaming(Fd);
    }
  } else {
    // FIFOs, device files, and zero-stat-size regular files (procfs
    // style) have no mappable extent; stream them to EOF instead.
    Out = readStreaming(Fd);
  }
  if (!Out)
    Err = errno;
  ::close(Fd);
  return Out;
}

/// Reads the optional corpus file \p Path into \p Out (nullopt when
/// absent). A file that exists but cannot be read — a symlink loop, a
/// directory in its place — fails naming the path, never loads empty.
bool readOptional(const fs::path &Path, std::optional<std::string> &Out,
                  std::string *Error) {
  int Err = 0;
  Out = readContents(Path.string(), Err);
  if (Out || Err == ENOENT)
    return true;
  return fail(Error, "cannot read " + Path.string() + ": " +
                         std::strerror(Err));
}

/// Fills \p Out, sorted, with the subdirectories (or regular files) of
/// \p Dir; an absent \p Optional one lists nothing. An entry that cannot
/// be resolved (a symlink loop) fails naming it; a dangling symlink is
/// skipped like an absent file. The error_code overloads add no syscall:
/// entry types come from the directory read except for symlinks.
bool listEntries(const fs::path &Dir, bool Directories, bool Optional,
                 std::vector<fs::path> &Out, std::string *Error) {
  const std::errc Absent = std::errc::no_such_file_or_directory;
  std::error_code EC;
  if (Optional && !fs::is_directory(Dir, EC))
    return !EC || EC == Absent ||
           fail(Error, "cannot open " + Dir.string() + ": " + EC.message());
  fs::directory_iterator It(Dir, EC), End;
  for (; !EC && It != End; It.increment(EC)) {
    std::error_code TypeEC;
    bool Match = Directories ? It->is_directory(TypeEC)
                             : It->is_regular_file(TypeEC);
    if (TypeEC && TypeEC != Absent)
      return fail(Error, "cannot resolve " + It->path().string() + ": " +
                             TypeEC.message());
    if (Match)
      Out.push_back(It->path());
  }
  if (EC)
    return fail(Error, "cannot list " + Dir.string() + ": " + EC.message());
  std::sort(Out.begin(), Out.end());
  return true;
}

} // namespace

std::optional<std::string>
diffcode::corpus::readFileContents(const std::string &Path) {
  int Err = 0;
  return readContents(Path, Err);
}

bool diffcode::corpus::writeCorpus(const Corpus &C, const std::string &RootDir,
                                   std::string *Error) {
  std::error_code EC;
  fs::create_directories(RootDir, EC);
  if (EC)
    return fail(Error, "cannot create " + RootDir + ": " + EC.message());

  for (const Project &P : C.Projects) {
    fs::path ProjectDir = fs::path(RootDir) / P.Name;
    fs::create_directories(ProjectDir / "head", EC);
    if (EC)
      return fail(Error, "cannot create " + ProjectDir.string());
    if (!writeFile(ProjectDir / "project.meta", metaToText(P.Meta), Error))
      return false;
    for (const ProjectFile &File : P.Files)
      if (!writeFile(ProjectDir / "head" / File.Name, File.Code, Error))
        return false;

    for (const CodeChange &Change : P.History) {
      fs::path CommitDir =
          ProjectDir / "commits" / commitDirName(Change.CommitIndex);
      fs::create_directories(CommitDir, EC);
      if (EC)
        return fail(Error, "cannot create " + CommitDir.string());
      if (!writeFile(CommitDir / "kind.txt", Change.Kind + "\n", Error) ||
          !writeFile(CommitDir / "file.txt", Change.FileName + "\n", Error) ||
          !writeFile(CommitDir / "old.java", Change.OldCode, Error) ||
          !writeFile(CommitDir / "new.java", Change.NewCode, Error))
        return false;
    }
  }
  return true;
}

std::optional<Corpus> diffcode::corpus::readCorpus(const std::string &RootDir,
                                                   std::string *Error) {
  Corpus C;
  std::vector<fs::path> ProjectDirs;
  if (!listEntries(RootDir, /*Directories=*/true, /*Optional=*/false,
                   ProjectDirs, Error))
    return std::nullopt;

  std::optional<std::string> Text;
  for (const fs::path &ProjectDir : ProjectDirs) {
    Project P;
    P.Name = ProjectDir.filename().string();
    if (!readOptional(ProjectDir / "project.meta", Text, Error))
      return std::nullopt;
    P.Meta = metaFromText(Text.value_or(""));

    std::vector<fs::path> Heads;
    if (!listEntries(ProjectDir / "head", /*Directories=*/false,
                     /*Optional=*/true, Heads, Error))
      return std::nullopt;
    for (const fs::path &Head : Heads) {
      if (!readOptional(Head, Text, Error))
        return std::nullopt;
      if (Text)
        P.Files.push_back({Head.filename().string(), std::move(*Text)});
    }

    std::vector<fs::path> CommitDirs;
    if (!listEntries(ProjectDir / "commits", /*Directories=*/true,
                     /*Optional=*/true, CommitDirs, Error))
      return std::nullopt;
    for (const fs::path &CommitDir : CommitDirs) {
      CodeChange Change;
      Change.ProjectName = P.Name;
      std::string Name = CommitDir.filename().string();
      if (Name.size() > 1 && Name[0] == 'c')
        Change.CommitIndex =
            static_cast<unsigned>(std::atoi(Name.c_str() + 1));
      std::optional<std::string> Kind, File, Old, New;
      if (!readOptional(CommitDir / "kind.txt", Kind, Error) ||
          !readOptional(CommitDir / "file.txt", File, Error) ||
          !readOptional(CommitDir / "old.java", Old, Error) ||
          !readOptional(CommitDir / "new.java", New, Error))
        return std::nullopt;
      Change.Kind = std::string(trim(Kind.value_or("")));
      Change.FileName = std::string(trim(File.value_or("")));
      Change.OldCode = std::move(Old).value_or("");
      Change.NewCode = std::move(New).value_or("");
      P.History.push_back(std::move(Change));
    }
    C.Projects.push_back(std::move(P));
  }
  return C;
}
