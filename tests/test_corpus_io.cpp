//===- tests/test_corpus_io.cpp - Corpus persistence tests -----------------===//

#include "corpus/CorpusIO.h"

#include "corpus/CorpusGenerator.h"
#include "corpus/Miner.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sys/stat.h>
#include <thread>

namespace fs = std::filesystem;

using namespace diffcode;
using namespace diffcode::corpus;

namespace {

class CorpusIOTest : public ::testing::Test {
protected:
  void SetUp() override {
    Root = fs::temp_directory_path() /
           ("diffcode-corpusio-" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "-" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(Root);
  }
  void TearDown() override { fs::remove_all(Root); }

  fs::path Root;
};

Corpus smallCorpus(std::uint64_t Seed = 13) {
  CorpusOptions Opts;
  Opts.Seed = Seed;
  Opts.NumProjects = 4;
  Opts.MinCommits = 3;
  Opts.MaxCommits = 6;
  return CorpusGenerator(Opts).generate();
}

} // namespace

TEST_F(CorpusIOTest, RoundTripPreservesEverything) {
  Corpus Original = smallCorpus();
  std::string Error;
  ASSERT_TRUE(writeCorpus(Original, Root.string(), &Error)) << Error;

  std::optional<Corpus> Loaded = readCorpus(Root.string(), &Error);
  ASSERT_TRUE(Loaded.has_value()) << Error;
  ASSERT_EQ(Loaded->Projects.size(), Original.Projects.size());

  // readCorpus orders projects lexicographically; compare by name.
  for (const Project &Want : Original.Projects) {
    const Project *Got = nullptr;
    for (const Project &P : Loaded->Projects)
      if (P.Name == Want.Name)
        Got = &P;
    ASSERT_NE(Got, nullptr) << Want.Name;
    EXPECT_EQ(Got->Meta.IsAndroid, Want.Meta.IsAndroid);
    EXPECT_EQ(Got->Meta.MinSdkVersion, Want.Meta.MinSdkVersion);
    EXPECT_EQ(Got->Meta.HasLinuxPrngFix, Want.Meta.HasLinuxPrngFix);
    ASSERT_EQ(Got->Files.size(), Want.Files.size());
    ASSERT_EQ(Got->History.size(), Want.History.size());
    for (std::size_t I = 0; I < Want.History.size(); ++I) {
      EXPECT_EQ(Got->History[I].Kind, Want.History[I].Kind);
      EXPECT_EQ(Got->History[I].FileName, Want.History[I].FileName);
      EXPECT_EQ(Got->History[I].OldCode, Want.History[I].OldCode);
      EXPECT_EQ(Got->History[I].NewCode, Want.History[I].NewCode);
      EXPECT_EQ(Got->History[I].CommitIndex, Want.History[I].CommitIndex);
    }
    for (const ProjectFile &File : Want.Files) {
      bool Found = false;
      for (const ProjectFile &Candidate : Got->Files)
        Found = Found || (Candidate.Name == File.Name &&
                          Candidate.Code == File.Code);
      EXPECT_TRUE(Found) << File.Name;
    }
  }
}

TEST_F(CorpusIOTest, ReadMissingDirectoryFails) {
  std::string Error;
  EXPECT_FALSE(readCorpus((Root / "nope").string(), &Error).has_value());
  EXPECT_FALSE(Error.empty());
}

TEST_F(CorpusIOTest, EmptyCorpusRoundTrips) {
  Corpus Empty;
  std::string Error;
  ASSERT_TRUE(writeCorpus(Empty, Root.string(), &Error)) << Error;
  std::optional<Corpus> Loaded = readCorpus(Root.string(), &Error);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_TRUE(Loaded->Projects.empty());
}

TEST_F(CorpusIOTest, HandLaidOutProjectLoads) {
  // A minimal hand-written layout (what a git exporter would produce).
  fs::create_directories(Root / "myproj" / "commits" / "c0001");
  fs::create_directories(Root / "myproj" / "head");
  {
    std::ofstream(Root / "myproj" / "project.meta")
        << "isAndroid=true\nminSdkVersion=21\nhasLinuxPrngFix=false\n";
    std::ofstream(Root / "myproj" / "head" / "A.java")
        << "class A { }";
    std::ofstream(Root / "myproj" / "commits" / "c0001" / "old.java")
        << "class A { Cipher c; }";
    std::ofstream(Root / "myproj" / "commits" / "c0001" / "new.java")
        << "class A { }";
    std::ofstream(Root / "myproj" / "commits" / "c0001" / "file.txt")
        << "A.java\n";
  }
  std::string Error;
  std::optional<Corpus> Loaded = readCorpus(Root.string(), &Error);
  ASSERT_TRUE(Loaded.has_value()) << Error;
  ASSERT_EQ(Loaded->Projects.size(), 1u);
  const Project &P = Loaded->Projects[0];
  EXPECT_EQ(P.Name, "myproj");
  EXPECT_TRUE(P.Meta.IsAndroid);
  EXPECT_EQ(P.Meta.MinSdkVersion, 21);
  ASSERT_EQ(P.History.size(), 1u);
  EXPECT_EQ(P.History[0].CommitIndex, 1u);
  EXPECT_EQ(P.History[0].FileName, "A.java");
  EXPECT_TRUE(P.History[0].Kind.empty()); // no kind.txt -> mined change
  EXPECT_NE(P.History[0].OldCode.find("Cipher"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Hostile layouts: an entry that exists but cannot be resolved or read is
// a structured error naming it, never an exception or an empty file.
//===----------------------------------------------------------------------===//

namespace {

/// One project with a valid commit c0001, so each hostile case differs
/// from a loadable corpus by exactly one entry.
void layOutProject(const fs::path &Project) {
  fs::create_directories(Project / "head");
  fs::create_directories(Project / "commits" / "c0001");
  std::ofstream(Project / "project.meta") << "isAndroid=false\n";
  std::ofstream(Project / "head" / "A.java") << "class A { }";
  std::ofstream(Project / "commits" / "c0001" / "old.java") << "class A { }";
  std::ofstream(Project / "commits" / "c0001" / "new.java") << "class B { }";
}

} // namespace

TEST_F(CorpusIOTest, SymlinkLoopDirectoryIsAnError) {
  for (const char *Dir : {"head", "commits"}) {
    fs::remove_all(Root);
    fs::path Project = Root / "loopy";
    layOutProject(Project);
    fs::remove_all(Project / Dir);
    // A self-referencing link: resolving it fails with ELOOP.
    fs::create_symlink(Project / Dir, Project / Dir);

    std::string Error;
    std::optional<Corpus> Loaded;
    ASSERT_NO_THROW(Loaded = readCorpus(Root.string(), &Error)) << Dir;
    EXPECT_FALSE(Loaded.has_value()) << Dir;
    EXPECT_NE(Error.find((Project / Dir).string()), std::string::npos)
        << Dir << ": " << Error;
  }
}

TEST_F(CorpusIOTest, UnreadableSourceIsAnError) {
  for (const char *File : {"old.java", "new.java"}) {
    for (bool AsDirectory : {false, true}) {
      fs::remove_all(Root);
      fs::path Commit = Root / "proj" / "commits" / "c0001";
      layOutProject(Root / "proj");
      fs::remove(Commit / File);
      if (AsDirectory)
        fs::create_directory(Commit / File);
      else
        fs::create_symlink(Commit / File, Commit / File);

      std::string Error;
      std::optional<Corpus> Loaded;
      ASSERT_NO_THROW(Loaded = readCorpus(Root.string(), &Error)) << File;
      EXPECT_FALSE(Loaded.has_value())
          << File << (AsDirectory ? " as directory" : " as symlink loop");
      EXPECT_NE(Error.find((Commit / File).string()), std::string::npos)
          << File << ": " << Error;
    }
  }
}

TEST_F(CorpusIOTest, DanglingSymlinksAreSkippedLikeAbsentFiles) {
  fs::path Project = Root / "proj";
  layOutProject(Project);
  fs::create_symlink(Root / "gone.java", Project / "head" / "B.java");
  fs::create_symlink(Root / "gone", Project / "commits" / "c0002");

  std::string Error;
  std::optional<Corpus> Loaded = readCorpus(Root.string(), &Error);
  ASSERT_TRUE(Loaded.has_value()) << Error;
  ASSERT_EQ(Loaded->Projects.size(), 1u);
  EXPECT_EQ(Loaded->Projects[0].Files.size(), 1u);
  EXPECT_EQ(Loaded->Projects[0].History.size(), 1u);
}

//===----------------------------------------------------------------------===//
// readFileContents: the mmap fast path and its chunked fallback
//===----------------------------------------------------------------------===//

TEST_F(CorpusIOTest, ReadFileContentsExactBytesAroundPageBoundaries) {
  fs::create_directories(Root);
  // Sizes straddling the page size catch off-by-one mapping bugs; the
  // NUL byte catches any string-based truncation.
  for (std::size_t Size : {std::size_t(0), std::size_t(1), std::size_t(4095),
                           std::size_t(4096), std::size_t(4097),
                           std::size_t(70000)}) {
    std::string Want(Size, '\0');
    for (std::size_t I = 0; I < Size; ++I)
      Want[I] = static_cast<char>(I % 251); // includes embedded NULs
    fs::path P = Root / ("f" + std::to_string(Size));
    std::ofstream(P, std::ios::binary).write(Want.data(),
                                             static_cast<std::streamsize>(Size));
    std::optional<std::string> Got = readFileContents(P.string());
    ASSERT_TRUE(Got.has_value()) << Size;
    EXPECT_EQ(*Got, Want) << Size;
  }
}

TEST_F(CorpusIOTest, ReadFileContentsMissingFileIsNullopt) {
  EXPECT_FALSE(readFileContents((Root / "absent").string()).has_value());
}

// The short-read regression (the seed double-buffered through stream
// internals and a FIFO delivering data in dribs truncated at the first
// partial read): a pipe that yields its payload in small flushed chunks
// must still be read to EOF, byte for byte.
TEST_F(CorpusIOTest, ReadFileContentsFifoToleratesShortReads) {
  fs::create_directories(Root);
  fs::path FifoPath = Root / "stream.fifo";
  ASSERT_EQ(::mkfifo(FifoPath.c_str(), 0600), 0) << strerror(errno);

  std::string Want;
  for (int Chunk = 0; Chunk < 64; ++Chunk)
    Want.append(997, static_cast<char>('a' + Chunk % 26));

  std::thread Writer([&] {
    // Opening the write end blocks until readFileContents opens the
    // read end; flushing per chunk forces the reader into short reads.
    std::ofstream Out(FifoPath, std::ios::binary);
    for (std::size_t Off = 0; Off < Want.size(); Off += 997) {
      Out.write(Want.data() + Off, 997);
      Out.flush();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::optional<std::string> Got = readFileContents(FifoPath.string());
  Writer.join();
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(Got->size(), Want.size());
  EXPECT_EQ(*Got, Want);
}

TEST_F(CorpusIOTest, LoadedCorpusMinesIdentically) {
  Corpus Original = smallCorpus(29);
  std::string Error;
  ASSERT_TRUE(writeCorpus(Original, Root.string(), &Error)) << Error;
  std::optional<Corpus> Loaded = readCorpus(Root.string(), &Error);
  ASSERT_TRUE(Loaded.has_value());

  Miner M(apimodel::CryptoApiModel::javaCryptoApi());
  EXPECT_EQ(M.mine(Original).size(), M.mine(*Loaded).size());
}
