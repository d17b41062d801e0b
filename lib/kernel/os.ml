let boot ?frames ?batched ?pcid ?trace ?cpus ?domains ?inject config =
  let k =
    Kernel.boot ?frames ?batched ?pcid ?trace ?cpus ?domains ?inject config
  in
  Syscalls.install_all k;
  Vfs.add_sized_file k.Kernel.vfs "/bin/sh" (16 * 4096);
  Vfs.add_sized_file k.Kernel.vfs "/bin/cc" (64 * 4096);
  Vfs.add_sized_file k.Kernel.vfs "/dev/null" 0;
  k

let boot_with_files ?frames ?batched ?pcid ?trace ?cpus ?domains ?inject
    config files =
  let k = boot ?frames ?batched ?pcid ?trace ?cpus ?domains ?inject config in
  List.iter (fun (name, size) -> Vfs.add_sized_file k.Kernel.vfs name size) files;
  k
