/*
 * A SIGPROF stack sampler, loaded into any process with LD_PRELOAD.
 *
 * Every ITIMER_PROF tick (process CPU time) the handler records the
 * interrupted instruction pointer and the return addresses found by
 * walking the frame-pointer chain. The walk stays inside the main
 * thread's stack and ticks that land on other threads are dropped, so a
 * binary built without frame pointers yields leaf-only samples instead
 * of a crash. At exit the samples and a copy of /proc/self/maps are
 * written for attribute.py.
 *
 *   cc -O2 -shared -fPIC -o sigprof.so sampler.c
 *   SIGPROF_OUT=prof LD_PRELOAD=./sigprof.so ./program args...
 *
 * writes prof.samples (one sample per line: hex addresses, leaf first)
 * and prof.maps.
 */
#define _GNU_SOURCE
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 64
/* Sampling period: 1 ms of process CPU time. */
#define PERIOD_USEC 1000
/* Words of sample storage: 32 MiB, untouched pages cost nothing. */
#define CAP (1u << 22)

static uint64_t buf[CAP];
static volatile size_t used;
static volatile size_t dropped;
static uintptr_t stack_lo, stack_hi;
static pid_t main_tid;
static const char *out_prefix;

static void on_prof(int sig, siginfo_t *info, void *uc_) {
    (void)sig;
    (void)info;
    if ((pid_t)syscall(SYS_gettid) != main_tid)
        return;
    if (used + MAX_DEPTH + 1 > CAP) {
        dropped++;
        return;
    }
    ucontext_t *uc = uc_;
#if defined(__x86_64__)
    uintptr_t ip = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
#elif defined(__aarch64__)
    uintptr_t ip = (uintptr_t)uc->uc_mcontext.pc;
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.regs[29];
#else
#error "sampler.c supports x86_64 and aarch64"
#endif
    size_t at = used, n = 0;
    buf[at + 1 + n++] = ip;
    while (n < MAX_DEPTH && fp >= stack_lo && fp + 16 <= stack_hi && fp % 8 == 0) {
        const uintptr_t *frame = (const uintptr_t *)fp;
        uintptr_t next = frame[0], ret = frame[1];
        if (ret == 0)
            break;
        buf[at + 1 + n++] = ret;
        if (next <= fp)
            break; /* the chain must climb the stack */
        fp = next;
    }
    buf[at] = n;
    used = at + 1 + n;
}

static void copy_maps(const char *path) {
    FILE *in = fopen("/proc/self/maps", "r");
    FILE *out = fopen(path, "w");
    char line[4096];
    while (in && out && fgets(line, sizeof line, in))
        fputs(line, out);
    if (in)
        fclose(in);
    if (out)
        fclose(out);
}

__attribute__((constructor)) static void sigprof_start(void) {
    out_prefix = getenv("SIGPROF_OUT");
    if (!out_prefix)
        return;
    main_tid = (pid_t)syscall(SYS_gettid);
    pthread_attr_t attr;
    void *addr;
    size_t size;
    if (pthread_getattr_np(pthread_self(), &attr) != 0)
        return;
    pthread_attr_getstack(&attr, &addr, &size);
    pthread_attr_destroy(&attr);
    stack_lo = (uintptr_t)addr;
    stack_hi = stack_lo + size;

    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);

    struct itimerval it = {{0, PERIOD_USEC}, {0, PERIOD_USEC}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void sigprof_stop(void) {
    if (!out_prefix || main_tid == 0)
        return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[4096];
    snprintf(path, sizeof path, "%s.maps", out_prefix);
    copy_maps(path);
    snprintf(path, sizeof path, "%s.samples", out_prefix);
    FILE *out = fopen(path, "w");
    if (!out)
        return;
    size_t samples = 0;
    for (size_t at = 0; at < used; at += 1 + buf[at], samples++) {
        for (size_t k = 0; k < buf[at]; k++)
            fprintf(out, k ? " %lx" : "%lx", (unsigned long)buf[at + 1 + k]);
        fputc('\n', out);
    }
    fclose(out);
    fprintf(stderr, "sigprof: %zu samples (%zu dropped) to %s\n", samples,
            (size_t)dropped, path);
}
