"""The two qutrit channels and their unitary dilations.

Walks through the analytic maps, the covariance relation between them, and
the exact 9x9 environment dilations.
"""
import numpy as np

from qutritsim import channels as ch
from qutritsim import linalg as la

np.set_printoptions(precision=4, suppress=True, linewidth=120)

print("== spin-1 generators ==")
j = ch.spin1_generators()
print("jz diagonal:", np.diag(j.jz).real)
print("casimir jx^2+jy^2+jz^2 == 2I:",
      np.abs(j.jx @ j.jx + j.jy @ j.jy + j.jz @ j.jz - 2 * np.eye(3)).max())

print("\n== channel action on basis projectors ==")
for i in range(3):
    rho = np.zeros((3, 3), dtype=complex)
    rho[i, i] = 1
    print(f"spin-1 channel |{i}><{i}| ->", np.diag(ch.ls_apply(rho)).real)
    print(f"transpose-dep. |{i}><{i}| ->", np.diag(ch.wh_apply(rho)).real)

print("\n== covariance: ls(rho) == wh(W rho W+) ==")
w = ch.covariance_unitary()
rng = np.random.default_rng(0)
a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
rho = a @ a.conj().T
rho /= np.trace(rho)
print("max deviation on a random state:",
      np.abs(ch.ls_apply(rho) - ch.wh_apply(w @ rho @ w.conj().T)).max())

print("\n== exact dilations, environment started in |0><0| ==")
u = ch.ls_dilation_matrix()  # system (x) environment
print("9x9 dilation unitary within:",
      np.abs(la.dagger(u) @ u - np.eye(9)).max())
env = np.zeros((3, 3), dtype=complex)
env[0, 0] = 1
full = u @ np.kron(rho, env) @ la.dagger(u)
out = la.partial_trace(full, [3, 3], [0])
print("dilation vs analytic:", np.abs(out - ch.ls_apply(rho)).max())

u_wh = ch.wh_dilation_matrix()  # environment (x) system
full = u_wh @ np.kron(env, rho) @ la.dagger(u_wh)
out = la.partial_trace(full, [3, 3], [1])
print("completed dilation vs analytic:", np.abs(out - ch.wh_apply(rho)).max())

print("\n== Kraus rank from the Choi spectrum ==")
for name in ("ls", "wh"):
    omega = ch.choi_of(ch.ChannelRep.analytic(name))
    evals, _ = la.hermitian_eig(omega)
    print(f"{name}: eigenvalues", np.round(evals, 6))
