//===- corpus/CorpusIO.cpp -------------------------------------------------===//

#include "corpus/CorpusIO.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>

#include <dirent.h>
#include <fcntl.h>
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

/// Chunked fallback for sources without a usable stat size (FIFOs,
/// special files): reads to EOF, retrying short reads (a pipe writer
/// filling in bursts must not look like a smaller file). nullopt on a
/// read error, with errno set.
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

/// Reads the file \p Name, relative to the open directory \p At (or to
/// the working directory for AT_FDCWD). \p Err receives the errno of the
/// failing call on failure (EISDIR for a directory).
std::optional<std::string> readAt(int At, const char *Name, int &Err) {
  int Fd = ::openat(At, Name, O_RDONLY | O_CLOEXEC);
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
    // One allocation of the stat size, filled by read(): for corpus-sized
    // files (a few hundred bytes) a copy is far cheaper than setting up
    // and tearing down a mapping.
    Out.emplace(static_cast<std::size_t>(St.st_size), '\0');
    std::size_t Got = 0;
    while (Got < Out->size()) {
      ssize_t N = ::read(Fd, Out->data() + Got, Out->size() - Got);
      if (N > 0)
        Got += static_cast<std::size_t>(N);
      else if (N == 0)
        break; // the file shrank since fstat
      else if (errno != EINTR) {
        Out.reset();
        break;
      }
    }
    if (Out)
      Out->resize(Got);
  } else {
    // FIFOs, device files, and zero-stat-size regular files (procfs
    // style) have no reliable size; stream them to EOF instead.
    Out = readStreaming(Fd);
  }
  if (!Out)
    Err = errno;
  ::close(Fd);
  return Out;
}

/// \p Dir joined with \p Name, as std::filesystem::path would join them.
/// Built only to name a failing entry.
std::string pathJoin(const std::string &Dir, const std::string &Name) {
  if (Dir.empty() || Dir.back() == '/')
    return Dir + Name;
  return Dir + "/" + Name;
}

bool failErrno(std::string *Error, const char *What, const std::string &Path,
               int Err) {
  return fail(Error, std::string(What) + " " + Path + ": " +
                         std::strerror(Err));
}

/// Reads the optional corpus file \p Name in directory \p At into \p Out
/// (nullopt when absent). Returns 0, or the errno of a file that exists
/// but cannot be read — a symlink loop, a directory in its place — which
/// the caller reports naming the path, never loading it empty.
int readOptional(int At, const char *Name, std::optional<std::string> &Out) {
  int Err = 0;
  Out = readAt(At, Name, Err);
  return Out || Err == ENOENT ? 0 : Err;
}

/// A directory opened for reading entries; closing the stream closes the
/// descriptor that dirfd() lends to openat.
using DirStream = std::unique_ptr<DIR, int (*)(DIR *)>;

/// Opens the directory \p Name relative to \p At for listing (symlinks
/// followed). A null stream leaves errno set.
DirStream openDir(int At, const char *Name) {
  DIR *D = nullptr;
  int Fd = ::openat(At, Name, O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (Fd >= 0 && !(D = ::fdopendir(Fd))) {
    int Err = errno;
    ::close(Fd);
    errno = Err;
  }
  return DirStream(D, &::closedir);
}

/// Fills \p Out, sorted bytewise, with the names of the subdirectories
/// (or regular files) of \p Dir, whose path \p DirPath serves only error
/// messages. Entry types come from the directory read; only symlinks and
/// entries of unknown type cost an fstatat. An entry that cannot be
/// resolved (a symlink loop) fails naming it; a dangling symlink is
/// skipped like an absent file.
bool listEntries(DIR *Dir, const std::string &DirPath, bool Directories,
                 std::vector<std::string> &Out, std::string *Error) {
  const unsigned char Want = Directories ? DT_DIR : DT_REG;
  for (;;) {
    errno = 0;
    const dirent *Entry = ::readdir(Dir);
    if (!Entry)
      break;
    const char *Name = Entry->d_name;
    if (std::strcmp(Name, ".") == 0 || std::strcmp(Name, "..") == 0)
      continue;
    unsigned char Type = Entry->d_type;
    if (Type == DT_LNK || Type == DT_UNKNOWN) {
      struct stat St;
      if (::fstatat(::dirfd(Dir), Name, &St, 0) != 0) {
        if (errno == ENOENT)
          continue;
        return failErrno(Error, "cannot resolve", pathJoin(DirPath, Name),
                         errno);
      }
      Type = S_ISDIR(St.st_mode)   ? DT_DIR
             : S_ISREG(St.st_mode) ? DT_REG
                                   : DT_UNKNOWN;
    }
    if (Type == Want)
      Out.emplace_back(Name);
  }
  if (errno != 0)
    return failErrno(Error, "cannot list", DirPath, errno);
  std::sort(Out.begin(), Out.end());
  return true;
}

/// Opens the optional directory \p Name in \p At (path \p Path, for
/// errors) into \p Dir and lists it into \p Names as listEntries does.
/// Absent, a dangling symlink, or not a directory (a regular file named
/// `head`) leaves \p Dir null and succeeds; anything else — a symlink
/// loop — fails naming \p Path.
bool listOptional(int At, const char *Name, const std::string &Path,
                  bool Directories, DirStream &Dir,
                  std::vector<std::string> &Names, std::string *Error) {
  Dir = openDir(At, Name);
  if (!Dir)
    return errno == ENOENT || errno == ENOTDIR ||
           failErrno(Error, "cannot open", Path, errno);
  return listEntries(Dir.get(), Path, Directories, Names, Error);
}

/// Loads the commit directory \p Name in \p CommitsDir (path
/// \p CommitsPath, for errors) into \p Change.
bool readCommit(int CommitsDir, const std::string &CommitsPath,
                const std::string &Name, CodeChange &Change,
                std::string *Error) {
  if (Name.size() > 1 && Name[0] == 'c')
    Change.CommitIndex = static_cast<unsigned>(std::atoi(Name.c_str() + 1));
  int Dir = ::openat(CommitsDir, Name.c_str(),
                     O_PATH | O_DIRECTORY | O_CLOEXEC);
  if (Dir < 0)
    return failErrno(Error, "cannot open", pathJoin(CommitsPath, Name), errno);
  static const char *const Files[] = {"kind.txt", "file.txt", "old.java",
                                      "new.java"};
  std::optional<std::string> Text[4];
  for (int I = 0; I < 4; ++I)
    if (int Err = readOptional(Dir, Files[I], Text[I])) {
      ::close(Dir);
      return failErrno(Error, "cannot read",
                       pathJoin(pathJoin(CommitsPath, Name), Files[I]), Err);
    }
  ::close(Dir);
  Change.Kind = std::string(trim(Text[0].value_or("")));
  Change.FileName = std::string(trim(Text[1].value_or("")));
  Change.OldCode = std::move(Text[2]).value_or("");
  Change.NewCode = std::move(Text[3]).value_or("");
  return true;
}

/// Loads the project directory \p Dir (path \p Path, for errors) into
/// \p P, whose name is already set.
bool readProject(int Dir, const std::string &Path, Project &P,
                 std::string *Error) {
  std::optional<std::string> Text;
  if (int Err = readOptional(Dir, "project.meta", Text))
    return failErrno(Error, "cannot read", pathJoin(Path, "project.meta"), Err);
  P.Meta = metaFromText(Text.value_or(""));

  std::string HeadPath = pathJoin(Path, "head");
  DirStream Head(nullptr, &::closedir);
  std::vector<std::string> Names;
  if (!listOptional(Dir, "head", HeadPath, /*Directories=*/false, Head, Names,
                    Error))
    return false;
  for (std::string &Name : Names) {
    if (int Err = readOptional(::dirfd(Head.get()), Name.c_str(), Text))
      return failErrno(Error, "cannot read", pathJoin(HeadPath, Name), Err);
    if (Text)
      P.Files.push_back({std::move(Name), std::move(*Text)});
  }

  std::string CommitsPath = pathJoin(Path, "commits");
  DirStream Commits(nullptr, &::closedir);
  Names.clear();
  if (!listOptional(Dir, "commits", CommitsPath, /*Directories=*/true,
                    Commits, Names, Error))
    return false;
  // Commit index -> the directory that claimed it: two names parsing to
  // one index (c0001 and c1) would load as two changes with one origin.
  std::map<unsigned, const std::string *> Claimed;
  for (const std::string &Name : Names) {
    CodeChange Change;
    Change.ProjectName = P.Name;
    if (!readCommit(::dirfd(Commits.get()), CommitsPath, Name, Change, Error))
      return false;
    auto [It, Fresh] = Claimed.emplace(Change.CommitIndex, &Name);
    if (!Fresh)
      return fail(Error, "commit directories " +
                             pathJoin(CommitsPath, *It->second) + " and " +
                             pathJoin(CommitsPath, Name) +
                             " have the same index " +
                             std::to_string(Change.CommitIndex));
    P.History.push_back(std::move(Change));
  }
  return true;
}

} // namespace

std::optional<std::string>
diffcode::corpus::readFileContents(const std::string &Path) {
  int Err = 0;
  std::optional<std::string> Out = readAt(AT_FDCWD, Path.c_str(), Err);
  if (!Out)
    errno = Err;
  return Out;
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
  DirStream Root = openDir(AT_FDCWD, RootDir.c_str());
  if (!Root) {
    failErrno(Error, "cannot list", RootDir, errno);
    return std::nullopt;
  }
  std::vector<std::string> Names;
  if (!listEntries(Root.get(), RootDir, /*Directories=*/true, Names, Error))
    return std::nullopt;

  Corpus C;
  for (std::string &Name : Names) {
    std::string Path = pathJoin(RootDir, Name);
    int Dir = ::openat(::dirfd(Root.get()), Name.c_str(),
                       O_PATH | O_DIRECTORY | O_CLOEXEC);
    if (Dir < 0) {
      failErrno(Error, "cannot open", Path, errno);
      return std::nullopt;
    }
    Project P;
    P.Name = std::move(Name);
    bool Ok = readProject(Dir, Path, P, Error);
    ::close(Dir);
    if (!Ok)
      return std::nullopt;
    C.Projects.push_back(std::move(P));
  }
  return C;
}
