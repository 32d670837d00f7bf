// hostprof: a wall-clock PC sampler to LD_PRELOAD into any host binary.
//
//   gcc -shared -fPIC -O2 -o build/hostprof.so tools/hostprof.c
//   HOSTPROF_OUT=/tmp/prof LD_PRELOAD=$PWD/build/hostprof.so ./build/bench/bench_blkio
//   python3 tools/hostprof.py /tmp/prof
//
// At load, a POSIX timer raises SIGPROF every 50 microseconds of wall-clock
// time and the handler records the interrupted PC. At exit each process
// writes <HOSTPROF_OUT>/<pid>.pcs (one hex PC a line) and <pid>.maps (its
// /proc/self/maps), which hostprof.py symbolizes. Without HOSTPROF_OUT the
// library does nothing. A process keeps at most 4M samples (about 200 s of
// run time); later ones are counted as dropped.
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define HOSTPROF_PERIOD_US 50
#define HOSTPROF_MAX_SAMPLES ((size_t)4 << 20)

static uintptr_t* g_pcs;
static atomic_size_t g_n;
static timer_t g_timer;
static int g_armed;

static uintptr_t InterruptedPc(const ucontext_t* uc) {
#if defined(__x86_64__)
  return (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  return (uintptr_t)uc->uc_mcontext.pc;
#else
  (void)uc;
  return 0;
#endif
}

static void OnProf(int sig, siginfo_t* info, void* ctx) {
  (void)sig;
  (void)info;
  int saved = errno;
  size_t i = atomic_fetch_add_explicit(&g_n, 1, memory_order_relaxed);
  if (i < HOSTPROF_MAX_SAMPLES) {
    g_pcs[i] = InterruptedPc((const ucontext_t*)ctx);
  }
  errno = saved;
}

__attribute__((constructor)) static void HostprofStart(void) {
  const char* out = getenv("HOSTPROF_OUT");
  if (out == NULL || *out == '\0') {
    return;
  }
  mkdir(out, 0755);  // may already exist
  void* buf = mmap(NULL, HOSTPROF_MAX_SAMPLES * sizeof(uintptr_t), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (buf == MAP_FAILED) {
    return;
  }
  g_pcs = buf;

  struct sigaction sa = {0};
  sa.sa_sigaction = OnProf;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) {
    return;
  }
  struct sigevent sev = {0};
  sev.sigev_notify = SIGEV_SIGNAL;
  sev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_MONOTONIC, &sev, &g_timer) != 0) {
    return;
  }
  struct itimerspec its = {0};
  its.it_interval.tv_nsec = HOSTPROF_PERIOD_US * 1000;
  its.it_value = its.it_interval;
  g_armed = timer_settime(g_timer, 0, &its, NULL) == 0;
}

static void CopyFile(const char* from, const char* to) {
  int in = open(from, O_RDONLY);
  if (in < 0) {
    return;
  }
  FILE* f = fopen(to, "w");
  if (f != NULL) {
    char buf[8192];
    ssize_t n;
    while ((n = read(in, buf, sizeof(buf))) > 0) {
      fwrite(buf, 1, (size_t)n, f);
    }
    fclose(f);
  }
  close(in);
}

__attribute__((destructor)) static void HostprofStop(void) {
  if (!g_armed) {
    return;
  }
  timer_delete(g_timer);
  g_armed = 0;
  const char* out = getenv("HOSTPROF_OUT");
  char path[4096];
  snprintf(path, sizeof(path), "%s/%d.pcs", out, (int)getpid());
  FILE* f = fopen(path, "w");
  if (f == NULL) {
    return;
  }
  size_t n = atomic_load(&g_n);
  size_t kept = n < HOSTPROF_MAX_SAMPLES ? n : HOSTPROF_MAX_SAMPLES;
  fprintf(f, "# samples %zu dropped %zu\n", kept, n - kept);
  for (size_t i = 0; i < kept; ++i) {
    fprintf(f, "%lx\n", (unsigned long)g_pcs[i]);
  }
  fclose(f);
  snprintf(path, sizeof(path), "%s/%d.maps", out, (int)getpid());
  CopyFile("/proc/self/maps", path);
}
