/* SIGPROF sampler, loaded with LD_PRELOAD.
 *
 * Samples the interrupted program counter once per millisecond of process
 * CPU time (ITIMER_PROF; the kernel's tick can coarsen it) into a fixed
 * buffer, and at exit writes sigprof.<pid>.txt into the working directory:
 * the process's memory map ("map <line of /proc/self/maps>") followed by one
 * "pc <hex>" line per sample. sigprof_report.py runs a command under it and
 * symbolizes the file.
 * The handler only reserves a slot with one atomic add and stores into it,
 * which is async-signal-safe and safe when handlers run at once on several
 * threads (ITIMER_PROF signals whichever thread is running); samples past a
 * full buffer are counted as dropped. x86-64 and AArch64 Linux. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 20)

static unsigned long samples[MAX_SAMPLES];
static unsigned long count; /* slots reserved; passes MAX_SAMPLES when full */

static void on_sigprof(int sig, siginfo_t *info, void *context) {
  (void)sig;
  (void)info;
  const ucontext_t *uc = (const ucontext_t *)context;
#if defined(__x86_64__)
  const unsigned long pc = (unsigned long)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  const unsigned long pc = (unsigned long)uc->uc_mcontext.pc;
#else
#error "sigprof.c reads the program counter on x86-64 and AArch64 only"
#endif
  const unsigned long slot = __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
  if (slot < MAX_SAMPLES) samples[slot] = pc;
}

__attribute__((constructor)) static void sigprof_start(void) {
  struct sigaction action = {0};
  action.sa_sigaction = on_sigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, NULL);
  const struct itimerval every_ms = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void sigprof_stop(void) {
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  char path[64];
  snprintf(path, sizeof path, "sigprof.%ld.txt", (long)getpid());
  FILE *out = fopen(path, "w");
  if (out == NULL) return;
  FILE *maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096];
    while (fgets(line, sizeof line, maps) != NULL) fprintf(out, "map %s", line);
    fclose(maps);
  }
  const unsigned long taken = __atomic_load_n(&count, __ATOMIC_RELAXED);
  const unsigned long kept = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
  for (unsigned long i = 0; i < kept; ++i) fprintf(out, "pc %lx\n", samples[i]);
  if (taken > kept) fprintf(out, "dropped %lu\n", taken - kept);
  fclose(out);
}
