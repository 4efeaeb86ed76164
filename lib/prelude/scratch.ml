let limit = 32_768
let fits words = words <= limit

(* The calling domain's size of every slot, in words, for
   [retained_words].  Slots are made at module initialisation, but the
   list is shared by all domains, so it only grows through a CAS. *)
let sizes : (unit -> int) list Atomic.t = Atomic.make []

let rec register size =
  let old = Atomic.get sizes in
  if not (Atomic.compare_and_set sizes old (size :: old)) then register size

type 'a slot = 'a array Domain.DLS.key

let slot () =
  let key = Domain.DLS.new_key (fun () -> [||]) in
  register (fun () -> Array.length (Domain.DLS.get key));
  key

let take key ~keep len v =
  if not keep then Array.make len v
  else begin
    let a = Domain.DLS.get key in
    if Array.length a >= len then begin
      Array.fill a 0 len v;
      a
    end
    else begin
      let a = Array.make len v in
      Domain.DLS.set key a;
      a
    end
  end

type bytes_slot = Bytes.t Domain.DLS.key

let bytes_slot () =
  let key = Domain.DLS.new_key (fun () -> Bytes.empty) in
  register (fun () -> (Bytes.length (Domain.DLS.get key) + 7) / 8);
  key

let take_bytes key ~keep len c =
  if not keep then Bytes.make len c
  else begin
    let b = Domain.DLS.get key in
    if Bytes.length b >= len then begin
      Bytes.fill b 0 len c;
      b
    end
    else begin
      let b = Bytes.make len c in
      Domain.DLS.set key b;
      b
    end
  end

let retained_words () = List.fold_left (fun acc size -> acc + size ()) 0 (Atomic.get sizes)
